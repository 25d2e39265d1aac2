package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// runResetCoverage verifies that pooled types are fully re-initialized
// between runs. A type marked //icrvet:pooled is an arena root handed out
// by a sync.Pool-style cache (sim's shape-keyed instance pool): every one
// of its fields — exported or not — must either be assigned in the type's
// Reset (or reset) method, directly or through same-package helpers, or
// carry an //icrvet:persistent annotation explaining why it deliberately
// survives. A field that is neither is cross-run state contamination: the
// second run on a pooled instance starts from the first run's leftovers,
// and the corruption is invisible until two configs that differ only in
// the forgotten knob share a pool slot.
//
// Coverage then descends: any field (covered or persistent) whose type is
// an in-module named struct with its own Reset/reset method is checked
// the same way, so the whole component tree behind the pool — caches,
// write buffer, memory, the CPU core — is verified, not just the top
// struct. Types without a Reset method are not descended into; if they
// hold per-run state, the parent's Reset must rebuild them.
func runResetCoverage(a *Analysis, r *Reporter) {
	mod := a.Mod
	seen := make(map[*types.Named]bool)
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					pos := mod.Fset.Position(ts.Pos())
					if a.dirs.annotationAt(annPooled, pos) == nil {
						continue
					}
					obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := obj.Type().(*types.Named)
					if !ok {
						continue
					}
					if _, ok := named.Underlying().(*types.Struct); !ok {
						r.Reportf(ts.Pos(), "//icrvet:pooled on %s, which is not a struct type", obj.Name())
						continue
					}
					checkPooledType(a, r, named, ts.Pos(), seen)
				}
			}
		}
	}
}

// resetMethodNode finds the Reset (or unexported reset) method of named
// and returns its call-graph node, or nil.
func resetMethodNode(a *Analysis, named *types.Named) *funcNode {
	for _, name := range []string{"Reset", "reset"} {
		obj, _, _ := types.LookupFieldOrMethod(
			types.NewPointer(named), true, named.Obj().Pkg(), name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := a.graph().funcOf(fn); node != nil {
			return node
		}
	}
	return nil
}

// checkPooledType verifies one struct in the pooled component tree.
func checkPooledType(a *Analysis, r *Reporter, named *types.Named, at token.Pos, seen map[*types.Named]bool) {
	if seen[named] {
		return
	}
	seen[named] = true
	mod := a.Mod

	reset := resetMethodNode(a, named)
	if reset == nil {
		r.Reportf(at,
			"pooled type %s has no Reset method: a pooled instance of it carries every field across runs", typeDisplay(named))
		return
	}
	covered := coveredFields(a, reset)

	st := named.Underlying().(*types.Struct)
	var missing []*types.Var
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		fpos := mod.Fset.Position(f.Pos())
		persistent := a.dirs.annotationAt(annPersistent, fpos) != nil
		if !covered[fieldKey(named, f.Name())] && !persistent {
			missing = append(missing, f)
		}
		// Descend into resettable components regardless of how the field
		// itself is handled: a persistent *cpu.Core is reset elsewhere,
		// but its own Reset still has to be complete.
		if sub := asNamedStruct(f.Type()); sub != nil && inModule(mod, sub) {
			if resetMethodNode(a, sub) != nil {
				checkPooledType(a, r, sub, f.Pos(), seen)
			}
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].Pos() < missing[j].Pos() })
	for _, f := range missing {
		r.Reportf(f.Pos(),
			"field %s is not assigned in %s and not marked //icrvet:persistent: it leaks state between pooled runs",
			fieldKey(named, f.Name()), reset.Name())
	}
}

// typeDisplay renders a named type as "pkg.Name".
func typeDisplay(named *types.Named) string {
	return types.TypeString(named, (*types.Package).Name)
}

// coveredFields gathers every (struct, field) selection in root and in
// the same-package functions the call graph reaches from it.
func coveredFields(a *Analysis, root *funcNode) map[string]bool {
	covered := make(map[string]bool)
	for n := range a.graph().reachable([]*funcNode{root}) {
		if n.pkg != root.pkg {
			continue
		}
		n.inspectOwn(func(node ast.Node) bool {
			if se, ok := node.(*ast.SelectorExpr); ok {
				if sel, ok := n.pkg.Info.Selections[se]; ok && sel.Kind() == types.FieldVal {
					recordSelection(covered, sel)
				}
			}
			return true
		})
	}
	return covered
}

// recordSelection records every field step along a (possibly embedded)
// field selection path.
func recordSelection(covered map[string]bool, sel *types.Selection) {
	t := sel.Recv()
	for _, idx := range sel.Index() {
		named := asNamedStruct(t)
		if named == nil {
			return
		}
		f := named.Underlying().(*types.Struct).Field(idx)
		covered[fieldKey(named, f.Name())] = true
		t = f.Type()
	}
}

// asNamedStruct unwraps pointers and aliases down to a named type with a
// struct underlying, or nil.
func asNamedStruct(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// inModule reports whether the named type is declared inside the analyzed
// module (recursion stops at the standard library).
func inModule(mod *Module, named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == mod.Path || strings.HasPrefix(pkg.Path(), mod.Path+"/")
}

// fieldKey names a struct field for diagnostics: "cpu.Config.MSHRs".
func fieldKey(named *types.Named, field string) string { return typeDisplay(named) + "." + field }
