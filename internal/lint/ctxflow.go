package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sleepPaths is where the time.Sleep rule applies: the layers that carry
// cancellable contexts across network and fleet boundaries. A bare Sleep
// in a ctx-carrying function there stalls shutdown for the full sleep —
// the SIGTERM drain tests only catch it when the timing happens to align.
var sleepPaths = []string{"internal/serve", "internal/runner", "internal/store"}

// runCtxFlow enforces context.Context plumbing discipline:
//
//   - a ctx parameter must be the first parameter (receivers aside) — Go's
//     one structural convention for cancellation, and what makes call
//     sites greppable;
//   - a Context must never be stored in a struct field: a stored context
//     outlives the request it belongs to and silently decouples work from
//     its canceller;
//   - context.Background()/TODO() belong only in cmd/ (and tests, which
//     this analyzer never loads): library code that conjures a root
//     context detaches itself from the caller's cancellation. The nil-ctx
//     compatibility seams keep their justified suppressions;
//   - no time.Sleep inside a ctx-carrying function in the serving, runner,
//     and store layers — sleep cannot be cancelled; select on ctx.Done()
//     with a timer instead.
func runCtxFlow(_ *Analysis, pkg *Package, r *Reporter) {
	inCmd := pkg.Rel == "cmd" || strings.HasPrefix(pkg.Rel, "cmd/")
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncType:
				checkCtxParamOrder(pkg, r, n)
			case *ast.StructType:
				checkCtxField(pkg, r, n)
			case *ast.CallExpr:
				if pkgPath, name, ok := stdFuncCall(pkg, n); ok &&
					pkgPath == "context" && (name == "Background" || name == "TODO") && !inCmd {
					r.Reportf(n.Pos(),
						"context.%s outside cmd/: library code must thread the caller's context, not conjure a root that ignores cancellation", name)
				}
			case *ast.FuncDecl:
				if inScope(pkg.Rel, sleepPaths) && funcTypeHasCtx(pkg, n.Type) && n.Body != nil {
					checkNoSleep(pkg, r, n.Body)
				}
			}
			return true
		})
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkCtxParamOrder flags a context.Context parameter that is not the
// first parameter of its function or literal.
func checkCtxParamOrder(pkg *Package, r *Reporter, ft *ast.FuncType) {
	if ft.Params == nil {
		return
	}
	index := 0
	for _, field := range ft.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		tv, ok := pkg.Info.Types[field.Type]
		if ok && tv.Type != nil && isContextType(tv.Type) && index > 0 {
			r.Reportf(field.Pos(),
				"context.Context must be the first parameter so cancellation plumbing is uniform and greppable")
		}
		index += n
	}
}

// checkCtxField flags a struct field of type context.Context.
func checkCtxField(pkg *Package, r *Reporter, st *ast.StructType) {
	for _, field := range st.Fields.List {
		tv, ok := pkg.Info.Types[field.Type]
		if ok && tv.Type != nil && isContextType(tv.Type) {
			r.Reportf(field.Pos(),
				"context.Context stored in a struct outlives its request and hides the cancellation chain; pass it as a parameter")
		}
	}
}

// funcTypeHasCtx reports whether a signature takes a context.Context.
func funcTypeHasCtx(pkg *Package, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := pkg.Info.Types[field.Type]; ok && tv.Type != nil && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkNoSleep flags time.Sleep anywhere in a ctx-carrying function's
// body, including inside its literals: the closures inherit the enclosing
// function's obligation to remain cancellable.
func checkNoSleep(pkg *Package, r *Reporter, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgPath, name, ok := stdFuncCall(pkg, call); ok && pkgPath == "time" && name == "Sleep" {
			r.Reportf(call.Pos(),
				"time.Sleep in a context-carrying function cannot be cancelled; select on ctx.Done() and a timer instead")
		}
		return true
	})
}
