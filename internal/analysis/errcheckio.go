package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrcheckIO flags dropped error returns from I/O-bearing packages: os, io
// and this module's internal/storage. A silently dropped storage error is
// how a bitmap index serves wrong answers instead of failing loudly, so
// the rule is narrow (only these packages) but strict.
//
// A call drops its error when it appears as a bare expression statement or
// a go statement. Deferred calls are exempt: `defer f.Close()` on a
// read-only path is idiomatic cleanup, and write paths in this repository
// promote the close error through a named return instead (see
// cmd/bixbench). Assigning the error to _ is an explicit, visible decision
// and is likewise allowed.
//
// A Close method that returns an error is in scope whatever its package:
// closing a written file is where a failed write surfaces, and this rule
// found dropped close errors on the write paths of bixbench and bixstore.
var ErrcheckIO = &Analyzer{
	Name: "errcheck-io",
	Doc:  "error results from os, io and internal/storage calls and from Close methods must not be dropped",
	Run:  runErrcheckIO,
}

// errcheckPkg reports whether the callee's package is in scope.
func errcheckPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "os" || path == "io" || strings.HasSuffix(path, "/internal/storage")
}

// returnsError reports whether the signature has an error result.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

func runErrcheckIO(pass *Pass) {
	info := pass.Pkg.Info
	check := func(call *ast.CallExpr, how string) {
		var id *ast.Ident
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || !returnsError(sig) {
			return
		}
		isClose := fn.Name() == "Close" && sig.Recv() != nil
		if !isClose && !errcheckPkg(fn.Pkg()) {
			return
		}
		pass.Reportf(call.Pos(), "error from %s.%s is dropped%s; handle it or assign it to _",
			fn.Pkg().Name(), fn.Name(), how)
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					check(call, "")
				}
			case *ast.GoStmt:
				check(s.Call, " in a go statement")
			case *ast.DeferStmt:
				return false // deferred cleanup is exempt by policy
			}
			return true
		})
	}
}
