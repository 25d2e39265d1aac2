package lint

import (
	"go/ast"
	"go/types"
)

// errIgnoredCallees never meaningfully fail (strings.Builder and
// bytes.Buffer document that their Write methods always return nil) or are
// conventionally fire-and-forget in a CLI (the fmt print family writing to
// stdout/stderr). Everything else must be handled.
var errIgnoredCallees = map[string]bool{
	"fmt.Print": true, "fmt.Printf": true, "fmt.Println": true,
	"fmt.Fprint": true, "fmt.Fprintf": true, "fmt.Fprintln": true,
	"(*strings.Builder).Write":       true,
	"(*strings.Builder).WriteString": true,
	"(*strings.Builder).WriteByte":   true,
	"(*strings.Builder).WriteRune":   true,
	"(*bytes.Buffer).Write":          true,
	"(*bytes.Buffer).WriteString":    true,
	"(*bytes.Buffer).WriteByte":      true,
	"(*bytes.Buffer).WriteRune":      true,
}

// runDroppedErr flags, module-wide, call statements that discard an error
// result: in cmd/, a dropped error means the process exits 0 with wrong or
// missing output; in the runner it folds a failed simulation into the
// figures; in the store it turns I/O failure into silent data loss; in a
// model package it silently misconfigures a simulation. Deferred calls and
// explicit `_ =` discards are allowed — the first is accepted cleanup
// idiom, the second is a visible, greppable decision.
func runDroppedErr(_ *Analysis, pkg *Package, r *Reporter) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkDroppedErr(pkg, r, call)
			return true
		})
	}
}

// checkDroppedErr reports a call statement whose results include an error.
func checkDroppedErr(pkg *Package, r *Reporter, call *ast.CallExpr) {
	errAt := errorResultIndex(pkg, call)
	if errAt < 0 {
		return
	}
	name := calleeName(pkg, call)
	if errIgnoredCallees[name] {
		return
	}
	if name == "" {
		name = "call"
	}
	r.Reportf(call.Pos(),
		"result of %s includes an error that is silently discarded; handle it or discard explicitly with `_ =`", name)
}

// errorResultIndex returns the index of an error result of the call, or -1.
func errorResultIndex(pkg *Package, call *ast.CallExpr) int {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return i
			}
		}
	default:
		if isErrorType(tv.Type) {
			return 0
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeName renders the called function for diagnostics and allowlisting:
// "fmt.Fprintf" for package functions, "(*strings.Builder).WriteString"
// for methods, the local name otherwise.
func calleeName(pkg *Package, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}
