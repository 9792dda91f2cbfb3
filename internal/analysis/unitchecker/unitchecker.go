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
// cmd/go also runs the tool over every dependency of a vetted package,
// with VetxOnly set, so that analyzers can compute facts for their
// importers. No analyzer here uses facts, so such a pass returns at
// once. It still writes its (empty) VetxOutput file: cmd/go caches a
// dependency's pass only when that file exists, and without it every
// `go vet` would start the tool once per dependency, standard library
// included.
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

// Config holds the fields the tool reads from the JSON cmd/go writes
// for each vetted package. Field names are fixed by the protocol.
type Config struct {
	ID                        string
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
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

// parseFiles parses the package's Go files with comments (markers need
// them).
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

// Run vets the package described by cfgFile and returns the process
// exit code: 0 clean, 1 operational error, 2 diagnostics found.
func Run(cfgFile string, analyzers []*analysis.Analyzer, jsonOut bool, stdout, stderr io.Writer) int {
	cfg, err := readConfig(cfgFile)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
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
