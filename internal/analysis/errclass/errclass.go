// Package errclass proves the retry layer's error taxonomy is total:
// every exported error value the kernel package can surface from a
// syscall must be classified — either as an instance fault in
// isInstanceFault (retry + failover applies) or as a caller fault in
// the callerFaults marker list (the request itself is wrong; retrying
// another replica would just fail again and burn the error budget).
// An unclassified kernel error silently falls into the caller-fault
// default, which turns transient infrastructure failures into permanent
// request failures.
package errclass

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// classifierFunc and markerVar are the two places a kernel error may be
// accounted for.
const (
	classifierFunc = "isInstanceFault"
	markerVar      = "callerFaults"
	kernelPkgName  = "kernel"
)

// Analyzer is the errclass pass.
var Analyzer = &analysis.Analyzer{
	Name: "errclass",
	Doc:  "check that every exported kernel error is classified by isInstanceFault or the callerFaults marker",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Only packages that define the classifier are in scope.
	var classifier *ast.FuncDecl
	var markerSpec *ast.ValueSpec
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch decl := d.(type) {
			case *ast.FuncDecl:
				if decl.Name.Name == classifierFunc && decl.Recv == nil {
					classifier = decl
				}
			case *ast.GenDecl:
				for _, s := range decl.Specs {
					if vs, ok := s.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							if n.Name == markerVar {
								markerSpec = vs
							}
						}
					}
				}
			}
		}
	}
	if classifier == nil {
		return nil, nil
	}

	covered := make(map[types.Object]bool)
	collectIsTargets(pass, classifier, covered)
	if markerSpec != nil {
		collectMarkerElems(pass, markerSpec, covered)
	}

	// Every exported error var of the kernel package referenced by this
	// package must be covered.
	for _, imp := range pass.Pkg.Imports() {
		if imp.Name() != kernelPkgName {
			continue
		}
		scope := imp.Scope()
		for _, name := range scope.Names() {
			obj, ok := scope.Lookup(name).(*types.Var)
			if !ok || !obj.Exported() || !matchutil.IsErrorType(obj.Type()) {
				continue
			}
			if !covered[obj] {
				pass.Reportf(classifier.Pos(),
					"kernel error %s.%s is not classified: add it to %s (instance fault, retryable) or to %s (caller fault, terminal)",
					kernelPkgName, obj.Name(), classifierFunc, markerVar)
			}
		}
	}
	return nil, nil
}

// collectIsTargets records the second argument of every errors.Is call
// inside the classifier.
func collectIsTargets(pass *analysis.Pass, fn *ast.FuncDecl, covered map[types.Object]bool) {
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || matchutil.CalleeName(call) != "Is" || len(call.Args) != 2 {
			return true
		}
		recordErrExpr(pass, call.Args[1], covered)
		return true
	})
}

// collectMarkerElems records every element of the callerFaults list.
func collectMarkerElems(pass *analysis.Pass, vs *ast.ValueSpec, covered map[types.Object]bool) {
	for _, v := range vs.Values {
		lit, ok := v.(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, el := range lit.Elts {
			recordErrExpr(pass, el, covered)
		}
	}
}

// recordErrExpr resolves an expression naming an error value to its
// object and marks it covered.
func recordErrExpr(pass *analysis.Pass, e ast.Expr, covered map[types.Object]bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if obj := matchutil.Obj(pass.TypesInfo, v); obj != nil {
			covered[obj] = true
		}
	case *ast.SelectorExpr:
		if obj := matchutil.Obj(pass.TypesInfo, v.Sel); obj != nil {
			covered[obj] = true
		}
	}
}
