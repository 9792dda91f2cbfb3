// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis surface: an Analyzer owns a name,
// a doc string and a Run function; a Pass hands Run one type-checked
// package and a Report sink. The build environment for this repository
// is offline (no module proxy), so vendoring x/tools is not an option;
// this package keeps the same shape — Analyzer, Pass, Diagnostic,
// Reportf — so the project analyzers under internal/analysis/... would
// port to the real framework by changing one import path.
//
// Facts are supported in a simplified form: an Analyzer that sets
// Facts exports one JSON-serializable summary per package via
// Pass.ExportFact, and reads its dependencies' summaries from
// Pass.Facts, keyed by package path. The unitchecker carries them
// between packages in the vetx files cmd/go already schedules for
// fact propagation; analysistest emulates the same flow over fixture
// imports. Unlike x/tools there are no per-object facts — one blob
// per (analyzer, package) is enough for per-function summaries, and it
// keeps the encoding trivial.
//
// Deliberately omitted relative to x/tools: Requires/ResultOf (no
// analyzer depends on another), SuggestedFixes (no analyzer proposes
// an edit), and the inspector (packages are small; ast.Inspect is
// fine).
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -<name> enable
	// flags, and // want comments. It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's help text; the first line is the summary.
	Doc string

	// Run applies the check to one package. Diagnostics go through
	// pass.Report; the error return is for operational failures,
	// not "found a violation".
	Run func(*Pass) error

	// Facts declares that this analyzer exports a per-package summary
	// (via Pass.ExportFact) and wants its dependencies' summaries
	// (Pass.Facts). Fact-less analyzers leave it false and skip the
	// propagation passes entirely.
	Facts bool
}

func (a *Analyzer) String() string { return a.Name }

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// Facts holds this analyzer's summaries for the packages this one
	// transitively imports, keyed by package path. Populated only for
	// analyzers with Facts set; nil otherwise (and in drivers that do
	// not propagate facts).
	Facts map[string]json.RawMessage

	// ExportFact records v — which must marshal cleanly to JSON — as
	// this analyzer's summary of this package, for Pass.Facts of the
	// packages that import it. Calling it twice overwrites; nil in
	// drivers that do not propagate facts.
	ExportFact func(v any)

	markers *MarkerIndex
}

// ImportFact unmarshals the analyzer's summary of pkgPath into out,
// reporting whether one was present.
func (p *Pass) ImportFact(pkgPath string, out any) bool {
	raw, ok := p.Facts[pkgPath]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Markers lazily builds and returns the package's //aarc: marker index.
func (p *Pass) Markers() *MarkerIndex {
	if p.markers == nil {
		p.markers = IndexMarkers(p.Fset, p.Files)
	}
	return p.markers
}

// FuncOf resolves the called function (or method) of a call expression,
// seeing through parentheses. It returns nil for calls through function
// values, conversions, and built-ins.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// PkgPathOf returns the import path of the package a function belongs
// to ("" for builtins/universe).
func PkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// IsTestFile reports whether the file's name on disk ends in _test.go.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	name := fset.Position(f.Package).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// NonTestFiles returns the package's files other than _test.go files.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !IsTestFile(p.Fset, f) {
			out = append(out, f)
		}
	}
	return out
}

// ShortName trims the import-path prefix off a full function or lock
// name for messages: "aarc/internal/store.(Memory).Get" becomes
// "store.(Memory).Get".
func ShortName(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		return full[i+1:]
	}
	return full
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
