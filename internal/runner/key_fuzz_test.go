package runner

import (
	"reflect"
	"testing"

	"repro/internal/config"
)

// FuzzKeyFor drives the content-address hash with fuzzer-chosen inputs and
// single-field mutations, asserting the two properties memoization rests
// on: equal inputs always hash equal (stability), and any observable input
// difference hashes different (no collisions that would serve one run's
// report for another's configuration). The mutated field is a leaf of the
// same walk TestKeyForFieldSensitivity uses, so every hashable field of
// config.Machine and config.Run is in reach.
func FuzzKeyFor(f *testing.F) {
	var leaves []fieldLeaf
	for _, l := range structLeaves(reflect.TypeOf(keyInputs{}), "", nil) {
		if l.kind != reflect.Func && l.kind != reflect.Interface {
			leaves = append(leaves, l)
		}
	}
	// One seed per leaf so the corpus exercises every field.
	for sel := range leaves {
		f.Add(uint64(1_000_000), int64(1), uint8(sel), uint64(1))
	}
	f.Add(uint64(0), int64(-5), uint8(3), uint64(0))          // delta 0: no-op mutation
	f.Add(uint64(1<<63), int64(1<<40), uint8(9), uint64(255)) // extreme values

	f.Fuzz(func(t *testing.T, instructions uint64, seed int64, sel uint8, delta uint64) {
		in1 := baseKeyInputs()
		in1.Run.Instructions = instructions
		in1.Run.Seed = seed

		k1, ok := KeyFor(in1.Machine, in1.Run)
		if !ok {
			t.Fatal("base inputs must be memoizable")
		}
		if k2, _ := KeyFor(in1.Machine, cloneRun(in1.Run)); k1 != k2 {
			t.Fatalf("same inputs, different keys: %s vs %s", k1, k2)
		}

		in2 := keyInputs{in1.Machine, cloneRun(in1.Run)}
		leaf := leaves[int(sel)%len(leaves)]
		bumpField(reflect.ValueOf(&in2).Elem().FieldByIndex(leaf.path), delta)
		k2, ok := KeyFor(in2.Machine, in2.Run)
		if !ok {
			t.Fatal("mutated inputs must stay memoizable")
		}
		same := reflect.DeepEqual(in1, in2)
		if same && k1 != k2 {
			t.Errorf("%s delta=%d: equal inputs hashed differently", leaf.name, delta)
		}
		if !same && k1 == k2 {
			t.Errorf("%s delta=%d: distinct inputs collided on %s", leaf.name, delta, k1)
		}
	})
}

// cloneRun deep-copies a Run including its reference-typed fields, so a
// mutation to the copy can never alias the original.
func cloneRun(r config.Run) config.Run {
	cp := r
	cp.Repl.Distances = append([]int(nil), r.Repl.Distances...)
	return cp
}
