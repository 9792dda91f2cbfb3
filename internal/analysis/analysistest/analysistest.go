// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against // want comments, following the
// x/tools/go/analysis/analysistest conventions:
//
//	testdata/src/<pkg>/*.go
//
// where a line expecting diagnostics carries a comment like
//
//	m[k] = v // want `map iteration order`
//
// with one Go-quoted regexp per expected diagnostic. Every diagnostic
// must be matched by a want on its line and every want must be
// consumed, so fixtures double as both positive and negative cases.
//
// Fixture packages are type-checked against the standard library via
// go/importer's source mode (offline; GOROOT source only) and against
// sibling fixture packages under the same testdata/src root, so a
// fixture can fake project packages (a `store` with wrapper
// constructors, a `search` with Register) without importing the real
// ones.
package analysistest

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aarc/internal/analysis"
)

// Shared across all Runs in a test binary: source-importing the
// standard library is the slow part, and one importer amortizes it.
var (
	loadMu sync.Mutex
	fset   = token.NewFileSet()
	stdImp types.ImporterFrom
	pkgs   = map[string]*loadedPkg{}

	// factsCache memoizes per-fixture fact computation for Facts
	// analyzers, keyed by analyzer name + fixture package name.
	factsCache = map[string]map[string]json.RawMessage{}
)

type loadedPkg struct {
	pkg      *types.Package
	info     *types.Info
	files    []*ast.File
	testdata string // the testdata root the fixture was loaded from
	err      error
}

// Run applies the analyzer to each fixture package under
// dir/src/<name> and reports mismatches against // want comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer, names ...string) {
	t.Helper()
	for _, name := range names {
		lp := load(t, dir, name)
		if lp.err != nil {
			t.Errorf("%s: loading fixture %q: %v", a.Name, name, lp.err)
			continue
		}
		runOne(t, a, lp, name)
	}
}

func load(t *testing.T, dir, name string) *loadedPkg {
	loadMu.Lock()
	defer loadMu.Unlock()
	return loadLocked(t, dir, name)
}

func loadLocked(t *testing.T, dir, name string) *loadedPkg {
	abs, err := filepath.Abs(filepath.Join(dir, "src", name))
	if err != nil {
		return &loadedPkg{err: err}
	}
	if lp, ok := pkgs[abs]; ok {
		return lp
	}
	lp := &loadedPkg{testdata: dir}
	pkgs[abs] = lp

	entries, err := os.ReadDir(abs)
	if err != nil {
		lp.err = err
		return lp
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(abs, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			lp.err = err
			return lp
		}
		lp.files = append(lp.files, f)
	}
	if len(lp.files) == 0 {
		lp.err = fmt.Errorf("no Go files in %s", abs)
		return lp
	}

	if stdImp == nil {
		stdImp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	}
	imp := &fixtureImporter{t: t, dir: dir}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	cfg := &types.Config{Importer: imp}
	lp.info = info
	lp.pkg, lp.err = cfg.Check(name, fset, lp.files, info)
	return lp
}

// fixtureImporter resolves import paths against the testdata src root
// first (so fixtures can fake project packages by path, e.g.
// "tierorder/store"), then falls back to the standard library source
// importer.
type fixtureImporter struct {
	t   *testing.T
	dir string // the testdata directory passed to Run
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	return fi.ImportFrom(path, "", 0)
}

func (fi *fixtureImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if st, err := os.Stat(filepath.Join(fi.dir, "src", path)); err == nil && st.IsDir() {
		lp := loadLocked(fi.t, fi.dir, path)
		return lp.pkg, lp.err
	}
	return stdImp.ImportFrom(path, srcDir, mode)
}

// fixtureFacts computes a Facts analyzer's summaries for one fixture
// package and everything it transitively imports under the same
// testdata root: the imported packages' facts are computed first
// (recursively, memoized), then the analyzer runs over the package
// with diagnostics discarded and its export joins the map — the same
// bottom-up order cmd/go's VetxOnly scheduling produces.
func fixtureFacts(t *testing.T, a *analysis.Analyzer, dir, name string) map[string]json.RawMessage {
	if st, err := os.Stat(filepath.Join(dir, "src", name)); err != nil || !st.IsDir() {
		return nil // stdlib or unknown import: no facts
	}
	key := a.Name + "\x00" + name
	if facts, ok := factsCache[key]; ok {
		return facts
	}
	facts := map[string]json.RawMessage{}
	factsCache[key] = facts // pre-register; import graphs are acyclic

	lp := load(t, dir, name)
	if lp.err != nil {
		return facts
	}
	for _, imp := range lp.pkg.Imports() {
		mergeFacts(facts, fixtureFacts(t, a, dir, imp.Path()))
	}
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     lp.files,
		Pkg:       lp.pkg,
		TypesInfo: lp.info,
		Report:    func(analysis.Diagnostic) {},
		Facts:     facts,
	}
	pass.ExportFact = func(v any) {
		if raw, err := json.Marshal(v); err == nil {
			facts[name] = raw
		}
	}
	_ = a.Run(pass)
	return facts
}

func mergeFacts(dst, src map[string]json.RawMessage) {
	for k, v := range src {
		dst[k] = v
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	hit  bool
}

func runOne(t *testing.T, a *analysis.Analyzer, lp *loadedPkg, name string) {
	t.Helper()
	wants := collectWants(t, lp)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     lp.files,
		Pkg:       lp.pkg,
		TypesInfo: lp.info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if a.Facts {
		// Emulate the unitchecker's cross-package fact flow: run the
		// analyzer over imported fixture packages first (diagnostics
		// discarded) and hand their summaries to this pass.
		pass.Facts = map[string]json.RawMessage{}
		for _, imp := range lp.pkg.Imports() {
			mergeFacts(pass.Facts, fixtureFacts(t, a, lp.testdata, imp.Path()))
		}
		pass.ExportFact = func(any) {}
	}
	if err := a.Run(pass); err != nil {
		t.Errorf("%s/%s: analyzer error: %v", a.Name, name, err)
		return
	}

	for _, d := range diags {
		p := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == p.Filename && w.line == p.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s/%s: unexpected diagnostic at %s: %s", a.Name, name, p, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s/%s: no diagnostic at %s:%d matching %q", a.Name, name, filepath.Base(w.file), w.line, w.text)
		}
	}
}

// collectWants parses `// want "re" "re"...` comments across the
// package, sorted for deterministic matching.
func collectWants(t *testing.T, lp *loadedPkg) []*want {
	t.Helper()
	var wants []*want
	for _, f := range lp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want ")
				if i < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range splitQuoted(text[i+len("want "):]) {
					expr, err := strconv.Unquote(lit)
					if err != nil {
						t.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, lit, err)
						continue
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
						continue
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, text: expr})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// splitQuoted extracts the Go string/backquote literals from a want
// comment tail.
func splitQuoted(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && (s[j] != '"' || s[j-1] == '\\') {
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		case '`':
			j := strings.IndexByte(s[i+1:], '`')
			if j >= 0 {
				out = append(out, s[i:i+j+2])
				i += j + 1
			}
		}
	}
	return out
}
