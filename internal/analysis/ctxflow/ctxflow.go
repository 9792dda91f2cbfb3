// Package ctxflow checks the serving stack's context-propagation
// invariant (DESIGN.md §7/§11): request-path code must thread the
// caller's context, and detaching from it — context.WithoutCancel, or
// minting a fresh root with context.Background/TODO — is legal only at
// blessed sites carrying an //aarc:detached <reason> marker. The one
// blessed site is load-bearing: the singleflight miss path detaches so
// a client disconnect cannot poison the shared cache entry. An unmarked
// detachment is either a bug (a cancellation that should propagate and
// doesn't) or an undocumented invariant; both should fail vet.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"aarc/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag unmarked context detachment and context-less entry points in request-path packages",
	Run:  run,
}

// requestPath lists the packages on the serving request path, by final
// import-path element. Everything else (the experiment harness, the
// workload generators, cmd/ mains' roots) legitimately mints root
// contexts.
var requestPath = map[string]bool{
	"service":    true,
	"search":     true,
	"store":      true,
	"inputaware": true,
	"core":       true,
	"bo":         true,
	"maff":       true,
	"naive":      true,
}

// mustAcceptContext lists exported entry-point names that perform
// search/store/evaluate work and therefore must accept a
// context.Context (their work is cancellable end to end).
var mustAcceptContext = map[string]bool{
	"Search":           true,
	"Configure":        true,
	"ConfigureClasses": true,
	"ConfigureBatch":   true,
	"Dispatch":         true,
}

func isRequestPath(pkg *types.Package) bool {
	path := pkg.Path()
	if path == "aarc" { // the module-root facade
		return true
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return requestPath[path]
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Name(), "_test") {
		return nil
	}
	reqPath := isRequestPath(pass.Pkg)
	isMain := pass.Pkg.Name() == "main"
	markers := pass.Markers()

	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, markers, n, reqPath, isMain)
			case *ast.FuncDecl:
				if reqPath {
					checkEntryPoint(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, markers *analysis.MarkerIndex, call *ast.CallExpr, reqPath, isMain bool) {
	fn := analysis.FuncOf(pass.TypesInfo, call)
	if analysis.PkgPathOf(fn) != "context" {
		return
	}
	var rule string
	switch fn.Name() {
	case "WithoutCancel":
		// Detachment from a live context: forbidden unmarked anywhere
		// in non-test code, including cmd/ mains.
		rule = "context.WithoutCancel detaches from the caller's cancellation"
	case "Background", "TODO":
		// Fresh roots: forbidden unmarked on the request path. Package
		// main owns the process root, so it is exempt.
		if !reqPath || isMain {
			return
		}
		rule = "context." + fn.Name() + "() mints a root context on the request path"
	default:
		return
	}
	m, ok := markers.At(pass.Fset, call.Pos(), "detached")
	if !ok {
		pass.Reportf(call.Pos(), "%s; propagate the caller's ctx or mark the site //aarc:detached <reason>", rule)
		return
	}
	if m.Arg == "" {
		pass.Reportf(call.Pos(), "//aarc:detached marker needs a reason")
	}
}

func checkEntryPoint(pass *analysis.Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || !mustAcceptContext[fd.Name.Name] || fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if analysis.IsContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return
		}
	}
	// Only entry points that actually drive cancellable machinery need
	// a context: a body that never calls anything accepting one (a pure
	// table lookup like inputaware's Engine.Dispatch) is exempt.
	if fd.Body == nil || !callsContextAcceptor(pass, fd.Body) {
		return
	}
	pass.Reportf(fd.Name.Pos(), "exported %s drives context-accepting search/store/evaluate machinery but accepts no context.Context itself", fd.Name.Name)
}

// callsContextAcceptor reports whether the body calls any function
// that has a context.Context parameter — i.e. there was cancellable
// work to thread a context into.
func callsContextAcceptor(pass *analysis.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.FuncOf(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		params := fn.Signature().Params()
		for i := 0; i < params.Len(); i++ {
			if analysis.IsContextType(params.At(i).Type()) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
