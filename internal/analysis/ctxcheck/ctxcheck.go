// Package ctxcheck is the analyzer form of the context-first API
// contract: every public data-plane entry point of the root roadrunner
// package must be cancellable. One rule: an exported method on *Platform
// whose parameters mention *Function (or []*Function) takes a
// context.Context as its first parameter.
package ctxcheck

import (
	"go/ast"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// rootPkg is the only package the contract applies to: the public API
// surface. Fixtures mimic it by naming their package the same.
const rootPkg = "roadrunner"

// Analyzer is the ctxcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc:  "check that every public data-plane entry point takes a context first",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() != rootPkg {
		return nil, nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() || recvName(fn) != "Platform" {
				continue
			}
			params := fn.Type.Params.List
			touches := false
			for _, field := range params {
				if strings.Contains(typeString(field.Type), "*Function") {
					touches = true
				}
			}
			if touches && typeString(params[0].Type) != "context.Context" {
				pass.Reportf(fn.Pos(),
					"(*Platform).%s: data-plane entry point whose first parameter is not a context.Context", fn.Name.Name)
			}
		}
	}
	return nil, nil
}

// recvName extracts the receiver's base type name ("Platform" from
// "*Platform").
func recvName(fn *ast.FuncDecl) string {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.Name
	}
	return ""
}

// typeString renders the subset of type expressions the check cares about.
func typeString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeString(t.X)
	case *ast.ArrayType:
		return "[]" + typeString(t.Elt)
	case *ast.SelectorExpr:
		return typeString(t.X) + "." + t.Sel.Name
	case *ast.Ellipsis:
		return "..." + typeString(t.Elt)
	default:
		return ""
	}
}
