package lint

import (
	"encoding/json"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// runWireCoverage verifies that the metrics JSON schema covers the report
// surface: every JSON-visible field of metrics.Report (and the structs it
// nests) must appear as a key in the committed schema goldens
// (internal/metrics/testdata/report_schema*.json), so a new counter cannot
// ship without the serving/storage schema test seeing it. KeyFor's hash
// coverage, the other codec that must agree on the configuration
// surface, is enforced field-by-field by the keycoverage pass.
func runWireCoverage(a *Analysis, r *Reporter) {
	schemaLeg(a, r)
}

// jsonField is one candidate field in a struct's JSON encoding.
type jsonField struct {
	name   string // wire name (tag name or Go name)
	f      *types.Var
	owner  *types.Named
	depth  int
	tagged bool
}

// jsonEffectiveFields resolves one struct's JSON field set under
// encoding/json's embedding rules: fields of embedded structs promote one
// depth down, the shallowest candidate for a name wins, a tagged candidate
// beats untagged at equal depth, and a tie drops the name entirely (none
// of those candidates marshal).
func jsonEffectiveFields(root *types.Named) (winners []jsonField) {
	byName := make(map[string][]jsonField)
	var order []string
	type item struct {
		named *types.Named
		depth int
	}
	queue := []item{{root, 0}}
	visited := map[*types.Named]bool{root: true}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		st, ok := it.named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			tag := reflect.StructTag(st.Tag(i)).Get("json")
			tagName, _, _ := strings.Cut(tag, ",")
			if tagName == "-" {
				continue
			}
			if f.Anonymous() && tagName == "" {
				if sub := asNamedStruct(f.Type()); sub != nil {
					if !visited[sub] {
						visited[sub] = true
						queue = append(queue, item{sub, it.depth + 1})
					}
					continue
				}
			}
			if !f.Exported() {
				continue
			}
			jf := jsonField{name: tagName, f: f, owner: it.named, depth: it.depth, tagged: tagName != ""}
			if jf.name == "" {
				jf.name = f.Name()
			}
			if _, ok := byName[jf.name]; !ok {
				order = append(order, jf.name)
			}
			byName[jf.name] = append(byName[jf.name], jf)
		}
	}
	for _, nm := range order {
		cands := byName[nm]
		minDepth := cands[0].depth
		for _, c := range cands {
			if c.depth < minDepth {
				minDepth = c.depth
			}
		}
		var atMin []jsonField
		for _, c := range cands {
			if c.depth == minDepth {
				atMin = append(atMin, c)
			}
		}
		winner := -1
		if len(atMin) == 1 {
			winner = 0
		} else {
			taggedAt := -1
			taggedCount := 0
			for i, c := range atMin {
				if c.tagged {
					taggedCount++
					taggedAt = i
				}
			}
			if taggedCount == 1 {
				winner = taggedAt
			}
		}
		if winner >= 0 {
			winners = append(winners, atMin[winner])
		}
	}
	return winners
}

// namedStructsIn collects the named struct types inside t (through
// pointers, slices, arrays, and map values) for schema-walk descent.
func namedStructsIn(t types.Type) []*types.Named {
	var out []*types.Named
	var walk func(t types.Type, depth int)
	walk = func(t types.Type, depth int) {
		if depth > 8 {
			return
		}
		if named := asNamedStruct(t); named != nil {
			out = append(out, named)
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			walk(u.Elem(), depth+1)
		case *types.Slice:
			walk(u.Elem(), depth+1)
		case *types.Array:
			walk(u.Elem(), depth+1)
		case *types.Map:
			walk(u.Elem(), depth+1)
		}
	}
	walk(t, 0)
	return out
}

// schemaLeg checks metrics.Report (and everything it nests) against the
// committed schema goldens.
func schemaLeg(a *Analysis, r *Reporter) {
	pkg := a.Mod.Lookup("internal/metrics")
	if pkg == nil {
		return
	}
	tn, ok := pkg.Types.Scope().Lookup("Report").(*types.TypeName)
	if !ok {
		return
	}
	report, ok := tn.Type().(*types.Named)
	if !ok {
		return
	}
	if _, ok := report.Underlying().(*types.Struct); !ok {
		return
	}

	keys, files, err := loadSchemaKeys(pkg.Dir)
	if err != nil {
		r.Reportf(tn.Pos(), "cannot read schema goldens for metrics.Report: %v", err)
		return
	}
	if len(files) == 0 {
		r.Reportf(tn.Pos(),
			"metrics.Report has no schema golden (internal/metrics/testdata/report_schema*.json): the wire schema is unpinned")
		return
	}

	seen := make(map[*types.Named]bool)
	var visit func(named *types.Named)
	visit = func(named *types.Named) {
		if seen[named] {
			return
		}
		seen[named] = true
		winners := jsonEffectiveFields(named)
		for _, w := range winners {
			if !keys[w.name] {
				r.Reportf(w.f.Pos(),
					"field %s (JSON key %q) is missing from the schema goldens (%s): regenerate them so the schema test pins the new field",
					fieldKey(w.owner, w.f.Name()), w.name, strings.Join(files, ", "))
			}
			for _, sub := range namedStructsIn(w.f.Type()) {
				if inModule(a.Mod, sub) {
					visit(sub)
				}
			}
		}
	}
	visit(report)
}

// loadSchemaKeys reads every testdata/report_schema*.json under dir and
// returns the union of all object keys at any nesting depth.
func loadSchemaKeys(dir string) (keys map[string]bool, files []string, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "testdata", "report_schema*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	keys = make(map[string]bool)
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, nil, err
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, err
		}
		collectKeys(doc, keys)
		files = append(files, filepath.Base(m))
	}
	return keys, files, nil
}

// collectKeys walks a decoded JSON value collecting every object key.
func collectKeys(doc any, keys map[string]bool) {
	switch doc := doc.(type) {
	case map[string]any:
		for k, v := range doc {
			keys[k] = true
			collectKeys(v, keys)
		}
	case []any:
		for _, v := range doc {
			collectKeys(v, keys)
		}
	}
}
