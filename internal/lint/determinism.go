package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// globalRandFuncs are the math/rand (and math/rand/v2) top-level functions
// that draw from the process-wide source. Constructors (New, NewSource,
// NewZipf, NewPCG, ...) are fine: they are how code obtains the seeded
// *rand.Rand the invariant demands.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"Uint": true, "UintN": true,
	"Uint32": true, "Uint32N": true, "Uint64": true, "Uint64N": true,
	"Float32": true, "Float64": true,
	"NormFloat64": true, "ExpFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true, "N": true,
}

// runDeterminism flags sources of nondeterminism inside the simulation
// packages (hotPaths): wall-clock reads, the global math/rand source, and map iteration
// whose body accumulates ordered output (appends, string building, writes).
// Floating-point accumulation under map iteration is the floatorder pass's
// job module-wide, so it is not duplicated here.
func runDeterminism(_ *Analysis, pkg *Package, r *Reporter) {
	if !inScope(pkg.Rel, hotPaths) {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pkg, r, n)
			case *ast.RangeStmt:
				checkMapRange(pkg, r, n)
			}
			return true
		})
	}
}

// checkDeterminismCall flags time.Now and global math/rand calls.
func checkDeterminismCall(pkg *Package, r *Reporter, call *ast.CallExpr) {
	pkgPath, name, ok := stdFuncCall(pkg, call)
	if !ok {
		return
	}
	switch {
	case pkgPath == "time" && name == "Now":
		r.Reportf(call.Pos(),
			"time.Now in hot package %s: simulation results must be a pure function of (Machine, Run); inject a clock seam instead", pkg.Rel)
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFuncs[name]:
		r.Reportf(call.Pos(),
			"global rand.%s uses the process-wide source; draw from an explicitly seeded *rand.Rand so runs replay byte-identically", name)
	}
}

// stdFuncCall resolves a call of the form pkg.Func and returns the package
// path and function name. Method calls and locally defined functions
// return ok=false.
func stdFuncCall(pkg *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// checkMapRange flags order-dependent accumulation in the body of a range
// over a map: appends, string concatenation, and output writes all bake the
// runtime's randomized iteration order into results.
func checkMapRange(pkg *Package, r *Reporter, rng *ast.RangeStmt) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					r.Reportf(n.Pos(),
						"append inside range over map: element order follows the map's randomized iteration; collect keys, sort, then iterate")
					return true
				}
			}
			if pkgPath, name, ok := stdFuncCall(pkg, n); ok {
				if pkgPath == "fmt" && isOrderedWrite(name) {
					r.Reportf(n.Pos(),
						"fmt.%s inside range over map emits output in randomized iteration order; collect keys, sort, then iterate", name)
				}
			} else if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isOrderedWrite(sel.Sel.Name) {
				r.Reportf(n.Pos(),
					"%s inside range over map emits output in randomized iteration order; collect keys, sort, then iterate", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pkg, r, n)
		}
		return true
	})
}

// isOrderedWrite recognizes method/function names that append to an
// ordered sink (CSV writers, builders, report emitters, printf family).
func isOrderedWrite(name string) bool {
	if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Fprint") {
		return true
	}
	switch name {
	case "Print", "Printf", "Println", "Append":
		return true
	}
	return false
}

// checkMapRangeAssign flags string accumulation (s += ...) under map
// iteration. Float accumulation is reported by floatorder.
func checkMapRangeAssign(pkg *Package, r *Reporter, as *ast.AssignStmt) {
	if !isCompoundAssign(as) || len(as.Lhs) != 1 {
		return
	}
	tv, ok := pkg.Info.Types[as.Lhs[0]]
	if !ok {
		return
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
		r.Reportf(as.Pos(),
			"string accumulation inside range over map builds output in randomized iteration order; collect keys, sort, then iterate")
	}
}
