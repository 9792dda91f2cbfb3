// Package unitchecker makes a multichecker binary usable with
//
//	go vet -vettool=$(which aarcvet) ./...
//
// It speaks cmd/go's vet tool protocol using only the standard
// library (the x/tools implementation is unavailable offline):
//
//   - `tool -flags` prints the supported flags as a JSON array; cmd/go
//     queries this once to validate the flags it forwards.
//   - `tool -V=full` prints "<exe> version devel buildID=<hash>"; cmd/go
//     folds the line into its action cache key, so rebuilding the tool
//     invalidates cached vet results.
//   - `tool [flags] <file>.cfg` analyzes one package. The cfg file is
//     JSON describing the package: its Go files, and an ImportMap plus
//     PackageFile table pointing every import at the compiler's export
//     data in the build cache. Type-checking imports through that table
//     (go/importer's gc lookup mode) is what lets the tool run without
//     re-type-checking the world — the same trick x/tools/go/analysis/
//     unitchecker uses.
//
// Diagnostics print to stderr as file:line:col: message and the tool
// exits 2, which cmd/go reports per package.
//
// # Facts
//
// Analyzers with Facts set export one JSON summary per package; the
// vetx files cmd/go threads between vet actions carry them. A vetx
// file is JSON of the form
//
//	{"<analyzer>": {"<pkgpath>": <fact>, ...}, ...}
//
// and each package's vetx merges its direct dependencies' facts with
// its own, so reading the direct imports' vetx files (the PackageVetx
// table) yields the transitive closure — the same scheme x/tools
// uses with gob. VetxOnly passes over in-module dependencies do a
// full parse+typecheck and run just the fact analyzers with
// diagnostics discarded; VetxOnly passes over the standard library
// only forward merged dependency facts, since no project analyzer
// mines facts from the stdlib.
package unitchecker

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"aarc/internal/analysis"
)

// Config mirrors the JSON cmd/go writes for each vetted package. Field
// names are fixed by the protocol.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main implements the vettool entry point for the given analyzers.
// It handles the -flags/-V=full handshakes, per-analyzer enable flags,
// and one <file>.cfg argument.
func Main(analyzers ...*analysis.Analyzer) {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON")
	jsonOut := flag.Bool("json", false, "emit JSON output")
	flag.Var(versionFlag{}, "V", "print version and exit")
	enabled := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		enabled[a.Name] = flag.Bool(a.Name, false, a.Doc)
	}
	flag.Parse()

	if *printFlags {
		// cmd/go parses this to learn which flags it may forward.
		type jsonFlag struct {
			Name  string
			Bool  bool
			Usage string
		}
		var out []jsonFlag
		flag.VisitAll(func(f *flag.Flag) {
			b, ok := f.Value.(interface{ IsBoolFlag() bool })
			out = append(out, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
		})
		data, err := json.Marshal(out)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(data)
		return
	}

	// Standard vet semantics: naming any analyzer flag runs only the
	// named ones; naming none runs all.
	var explicit bool
	flag.Visit(func(f *flag.Flag) {
		if _, ok := enabled[f.Name]; ok {
			explicit = true
		}
	})
	run := analyzers
	if explicit {
		run = nil
		for _, a := range analyzers {
			if *enabled[a.Name] {
				run = append(run, a)
			}
		}
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf(`invoking %s directly is unsupported; use "go vet -vettool=$(which %s)" or "go run ./cmd/aarcvet ./..."`, progname, progname)
	}
	os.Exit(Run(args[0], run, *jsonOut, os.Stdout, os.Stderr))
}

// factMap is the decoded form of a vetx file: analyzer name →
// package path → that analyzer's summary of that package.
type factMap = map[string]map[string]json.RawMessage

// readDepFacts merges the vetx files of the package's direct imports.
// Empty and legacy (zero-byte) files contribute nothing.
func readDepFacts(cfg *Config) factMap {
	merged := factMap{}
	for _, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var fm factMap
		if json.Unmarshal(data, &fm) != nil {
			continue
		}
		for analyzer, perPkg := range fm {
			dst := merged[analyzer]
			if dst == nil {
				dst = map[string]json.RawMessage{}
				merged[analyzer] = dst
			}
			for path, fact := range perPkg {
				dst[path] = fact
			}
		}
	}
	return merged
}

func writeVetx(cfg *Config, facts factMap) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	data, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}

// parseFiles parses the package's Go files with comments (markers and
// facts both need them).
func parseFiles(fset *token.FileSet, cfg *Config) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// runFacts runs the fact analyzers over an already-typechecked package
// with diagnostics discarded, merging each one's exported summary into
// facts under the package's import path.
func runFacts(factAnalyzers []*analysis.Analyzer, facts factMap, cfg *Config,
	fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) {
	for _, a := range factAnalyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report:    func(analysis.Diagnostic) {},
			Facts:     facts[a.Name],
		}
		name := a.Name
		pass.ExportFact = func(v any) {
			raw, err := json.Marshal(v)
			if err != nil {
				return
			}
			if facts[name] == nil {
				facts[name] = map[string]json.RawMessage{}
			}
			facts[name][cfg.ImportPath] = raw
		}
		_ = a.Run(pass) // fact passes are best-effort; the real run reports errors
	}
}

// Run vets the package described by cfgFile and returns the process
// exit code: 0 clean, 1 operational error, 2 diagnostics found.
func Run(cfgFile string, analyzers []*analysis.Analyzer, jsonOut bool, stdout, stderr io.Writer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var factAnalyzers []*analysis.Analyzer
	for _, a := range analyzers {
		if a.Facts {
			factAnalyzers = append(factAnalyzers, a)
		}
	}
	facts := readDepFacts(cfg)

	// Facts-only pass over a dependency: compute in-module facts (the
	// stdlib yields none), forward the merged map, skip diagnostics.
	if cfg.VetxOnly {
		if len(factAnalyzers) > 0 && inModule(cfg) {
			fset := token.NewFileSet()
			if files, err := parseFiles(fset, cfg); err == nil {
				if pkg, info, err := typecheck(fset, cfg, files); err == nil {
					runFacts(factAnalyzers, facts, cfg, fset, files, pkg, info)
				}
			}
		}
		if err := writeVetx(cfg, facts); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	fset := token.NewFileSet()
	files, err := parseFiles(fset, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	pkg, info, err := typecheck(fset, cfg, files)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "%s: type-checking %s: %v\n", filepath.Base(os.Args[0]), cfg.ImportPath, err)
		return 1
	}

	type finding struct {
		analyzer string
		diag     analysis.Diagnostic
	}
	var findings []finding
	exit := 0
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			findings = append(findings, finding{name, d})
		}
		if a.Facts {
			pass.Facts = facts[a.Name]
			pass.ExportFact = func(v any) {
				raw, err := json.Marshal(v)
				if err != nil {
					return
				}
				if facts[name] == nil {
					facts[name] = map[string]json.RawMessage{}
				}
				facts[name][cfg.ImportPath] = raw
			}
		}
		if err := a.Run(pass); err != nil {
			fmt.Fprintf(stderr, "%s: %s: %v\n", cfg.ImportPath, a.Name, err)
			exit = 1
		}
	}

	// Driver-level marker hygiene: an //aarc: comment of unknown kind
	// is a finding — a typoed waiver must fail loudly, not silently
	// waive nothing.
	for _, m := range analysis.IndexMarkers(fset, files).Unknown() {
		findings = append(findings, finding{"markers", analysis.Diagnostic{
			Pos:     m.Pos,
			Message: fmt.Sprintf("unknown marker //aarc:%s (known kinds: detached, locked, errpath, lockorder, nilok)", m.Name),
		}})
	}

	if err := writeVetx(cfg, facts); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	sort.SliceStable(findings, func(i, j int) bool {
		return findings[i].diag.Pos < findings[j].diag.Pos
	})
	if jsonOut {
		// {"pkg": {"analyzer": [{"posn": ..., "message": ...}]}}
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for _, f := range findings {
			byAnalyzer[f.analyzer] = append(byAnalyzer[f.analyzer],
				jsonDiag{fset.Position(f.diag.Pos).String(), f.diag.Message})
		}
		tree := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		data, _ := json.MarshalIndent(tree, "", "\t")
		fmt.Fprintf(stdout, "%s\n", data)
		return exit
	}
	seen := make(map[string]bool)
	for _, f := range findings {
		line := fmt.Sprintf("%s: %s", fset.Position(f.diag.Pos), f.diag.Message)
		if seen[line] {
			continue
		}
		seen[line] = true
		fmt.Fprintln(stderr, line)
		exit = 2
	}
	return exit
}

func readConfig(name string) (*Config, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", name, err)
	}
	return cfg, nil
}

// typecheck loads the package from cfg, resolving imports through the
// export-data files cmd/go listed in PackageFile.
func typecheck(fset *token.FileSet, cfg *Config, files []*ast.File) (*types.Package, *types.Info, error) {
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, runtime.GOARCH),
		GoVersion: langVersion(cfg.GoVersion),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// langVersion trims a toolchain version like "go1.24.0" to the
// language version form go/types accepts ("go1.24").
func langVersion(v string) string {
	if !strings.HasPrefix(v, "go") {
		return ""
	}
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return v
	}
	return parts[0] + "." + parts[1]
}

// inModule reports whether the package described by cfg belongs to
// the module being vetted, i.e. its import path sits under the module
// path declared by the go.mod above its source directory. Standard
// library packages resolve to GOROOT/src's `module std`, whose import
// paths do not carry the module prefix, so they are excluded — which
// is exactly what the facts pass wants: computing lock-order facts for
// all of net/http's dependency cone would multiply vet time by orders
// of magnitude for findings we could not act on anyway. (cfg.Standard
// cannot answer this: it lists the package's standard *imports*, not
// whether the package itself is standard.)
func inModule(cfg *Config) bool {
	root := findModuleRoot(cfg.Dir)
	if root == "" {
		return false
	}
	path := modulePath(filepath.Join(root, "go.mod"))
	if path == "" || path == "std" || path == "cmd" {
		return false
	}
	return cfg.ImportPath == path || strings.HasPrefix(cfg.ImportPath, path+"/")
}

// modulePath extracts the module path from a go.mod file.
func modulePath(file string) string {
	data, err := os.ReadFile(file)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

func findModuleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}

// versionFlag implements -V=full: the printed line must start with the
// executable path (cmd/go compares it against the -vettool argument)
// and, being a "devel" version, end in a buildID field derived from
// the binary so rebuilds bust cmd/go's vet result cache.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return false }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel buildID=%x\n", exe, h[:12])
	os.Exit(0)
	return nil
}
