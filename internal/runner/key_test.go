package runner

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
)

func baseInputs() (config.Machine, config.Run) {
	m := config.Default()
	r := config.NewRun("vpr", core.BaseP())
	return m, r
}

// keyInputs is KeyFor's argument pair as one value, so a single field walk
// covers both.
type keyInputs struct {
	Machine config.Machine
	Run     config.Run
}

func baseKeyInputs() keyInputs {
	m, r := baseInputs()
	return keyInputs{m, r}
}

func mustKey(t *testing.T, m config.Machine, r config.Run) Key {
	t.Helper()
	k, ok := KeyFor(m, r)
	if !ok {
		t.Fatal("KeyFor reported inputs non-memoizable")
	}
	return k
}

func TestKeyForDeterministic(t *testing.T) {
	m, r := baseInputs()
	r.Repl.Distances = []int{32, 16}
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})

	k1 := mustKey(t, m, r)

	// Rebuild the run from scratch (fresh slice/policy allocations): the key
	// must depend on values, never on pointer identity.
	m2, r2 := baseInputs()
	r2.Repl.Distances = []int{32, 16}
	r2.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 4096})
	if k2 := mustKey(t, m2, r2); k1 != k2 {
		t.Errorf("identical inputs hashed differently:\n%s\n%s", k1, k2)
	}
}

// TestKeyForGolden pins the hash of the default machine × a plain BaseP run.
// It fails when the serialization changes, which is exactly when it should:
// the key is a content address and must be stable across processes, so any
// format change has to be deliberate (update the constant when it is).
func TestKeyForGolden(t *testing.T) {
	m, r := baseInputs()
	const want = "8ebb57c79698ab75f539cddbf5d6b63ce594c018fbec343feab193e6680046c8"
	if got := mustKey(t, m, r).String(); got != want {
		t.Errorf("golden key changed:\n got %s\nwant %s\n(update the constant only for a deliberate serialization change)", got, want)
	}
}

// hookFields are the func- and interface-typed inputs KeyFor handles
// without hashing their values: a non-nil cpu.Config hook makes a run
// non-memoizable, and Hints is fingerprinted per known policy
// (TestKeyForNonMemoizableInputs, TestKeyForHintPolicies). A new one must
// be pinned here once config.AppendCanonical refuses it when set (or
// fingerprints it).
var hookFields = map[string]bool{
	"Machine.CPU.EachCycle": true,
	"Machine.CPU.Halt":      true,
	"Run.Hints":             true,
}

// TestKeyForFieldSensitivity walks every field of config.Machine and
// config.Run by reflection, bumps each hashable one in isolation, and
// asserts the key changes — and that no two single-field mutations
// collide. Because the walk enumerates struct fields dynamically, a field
// of a kind the encoding cannot take fails this test, and so does any
// func- or interface-typed field outside hookFields: KeyFor cannot hash
// behaviour, so a new one must refuse memoization when set (or be
// fingerprinted) before it joins that list.
func TestKeyForFieldSensitivity(t *testing.T) {
	base := baseKeyInputs()
	baseKey := mustKey(t, base.Machine, base.Run)
	seen := map[Key]string{baseKey: "base"}

	check := func(name string, k Key) {
		t.Helper()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s produced the same key as %s", name, prev)
			return
		}
		seen[k] = name
	}
	hashable := func(l fieldLeaf) bool {
		t.Helper()
		if l.kind != reflect.Func && l.kind != reflect.Interface {
			return true
		}
		if !hookFields[l.name] {
			t.Errorf("%s has kind %s, which KeyFor cannot hash: refuse memoization when it is set, then pin it in hookFields", l.name, l.kind)
		}
		return false
	}

	for _, l := range structLeaves(reflect.TypeOf(base), "", nil) {
		if hashable(l) {
			in := baseKeyInputs()
			bumpField(reflect.ValueOf(&in).Elem().FieldByIndex(l.path), 1)
			check(l.name, mustKey(t, in.Machine, in.Run))
		}
	}
}

type fieldLeaf struct {
	name string
	kind reflect.Kind
	path []int
}

// structLeaves enumerates the non-struct fields of a struct type,
// recursing into nested structs.
func structLeaves(t reflect.Type, prefix string, base []int) []fieldLeaf {
	var out []fieldLeaf
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		path := append(append([]int(nil), base...), i)
		name := f.Name
		if prefix != "" {
			name = prefix + "." + f.Name
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, structLeaves(f.Type, name, path)...)
		} else {
			out = append(out, fieldLeaf{name: name, kind: f.Type.Kind(), path: path})
		}
	}
	return out
}

// bumpField changes a field by delta: +delta for integers, +delta/2 for
// floats, a flip for odd delta on bools, and delta%4 appended elements for
// strings and slices. delta 0 leaves every kind unchanged.
func bumpField(v reflect.Value, delta uint64) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + int64(delta))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + delta)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + float64(delta)/2)
	case reflect.Bool:
		v.SetBool(v.Bool() != (delta%2 == 1))
	case reflect.String:
		v.SetString(v.String() + strings.Repeat("x", int(delta%4)))
	case reflect.Slice:
		for range delta % 4 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		}
	default:
		panic("bumpField: unhandled kind " + v.Kind().String())
	}
}

func TestKeyForDistancesOrderAndLength(t *testing.T) {
	m, r := baseInputs()
	r.Repl.Distances = []int{32, 16}
	k1 := mustKey(t, m, r)
	r.Repl.Distances = []int{16, 32}
	k2 := mustKey(t, m, r)
	if k1 == k2 {
		t.Error("distance order must affect the key")
	}
	// A length-prefix guard: [32] followed by other fields must not collide
	// with [32,16] via concatenation ambiguity.
	r.Repl.Distances = []int{32}
	if k3 := mustKey(t, m, r); k3 == k1 || k3 == k2 {
		t.Error("distance length must affect the key")
	}
}

func TestKeyForHintPolicies(t *testing.T) {
	m, r := baseInputs()
	kNil := mustKey(t, m, r)

	r.Hints = core.ReplicateAll{}
	kAll := mustKey(t, m, r)
	if kAll == kNil {
		t.Error("ReplicateAll must hash differently from nil hints")
	}

	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 64, Hint: core.Hint{Replicate: false}})
	kRange := mustKey(t, m, r)
	if kRange == kNil || kRange == kAll {
		t.Error("RangePolicy must hash differently from nil/ReplicateAll")
	}

	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 128, Hint: core.Hint{Replicate: false}})
	if k := mustKey(t, m, r); k == kRange {
		t.Error("range bounds must affect the key")
	}

	// Same policy content in a fresh allocation: same key.
	r.Hints = core.NewRangePolicy(core.AddrRange{Start: 0, End: 64, Hint: core.Hint{Replicate: false}})
	if k := mustKey(t, m, r); k != kRange {
		t.Error("equal RangePolicy contents must produce equal keys")
	}
}

// opaqueHints is a HintPolicy implementation KeyFor has never heard of; its
// behaviour cannot be fingerprinted, so runs carrying it must not memoize.
type opaqueHints struct{}

func (opaqueHints) Hint(uint64) core.Hint { return core.Hint{} }

func TestKeyForNonMemoizableInputs(t *testing.T) {
	cases := []struct {
		name string
		prep func(*config.Machine, *config.Run)
	}{
		{"EachCycle hook", func(m *config.Machine, r *config.Run) {
			m.CPU.EachCycle = func(uint64) uint64 { return 0 }
		}},
		{"Halt hook", func(m *config.Machine, r *config.Run) {
			m.CPU.Halt = func() bool { return false }
		}},
		{"unknown hint policy", func(m *config.Machine, r *config.Run) {
			r.Hints = opaqueHints{}
		}},
		{"nil RangePolicy", func(m *config.Machine, r *config.Run) {
			r.Hints = (*core.RangePolicy)(nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, r := baseInputs()
			tc.prep(&m, &r)
			if _, ok := KeyFor(m, r); ok {
				t.Error("inputs with opaque behaviour must not be memoizable")
			}
		})
	}
}

// TestCPUConfigHookFieldsKnown pins the func-typed fields of cpu.Config to
// the Machine.CPU entries of hookFields, in both directions. The field walk
// above fails on a hook missing from hookFields; this test also fails on a
// pin whose field is gone or is no longer a func, so the list stays exact.
func TestCPUConfigHookFieldsKnown(t *testing.T) {
	const prefix = "Machine.CPU."
	hooks := map[string]bool{}
	ct := reflect.TypeOf(cpu.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Func {
			continue
		}
		hooks[prefix+f.Name] = true
		if !hookFields[prefix+f.Name] {
			t.Errorf("new cpu.Config hook %s: teach KeyFor to reject it when non-nil, then pin it in hookFields", f.Name)
		}
	}
	for name := range hookFields {
		if strings.HasPrefix(name, prefix) && !hooks[name] {
			t.Errorf("hookFields pins %s, which is not a func field of cpu.Config", name)
		}
	}
}
