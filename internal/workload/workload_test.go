package workload

import (
	"reflect"
	"testing"

	"repro/internal/isa"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(Profiles()) != 8 {
		t.Fatalf("want 8 benchmark profiles (paper §4), got %d", len(Profiles()))
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("ByName(%q) returned %q", name, p.Name)
		}
	}
	if _, err := ByName("swim"); err == nil {
		t.Error("unknown benchmark should error")
	}
	for _, p := range PhaseProfiles() {
		if err := CheckName(p.Name); err != nil {
			t.Errorf("CheckName(%q): %v", p.Name, err)
		}
	}
	_, byNameErr := ByName("swim")
	if err := CheckName("swim"); err == nil || err.Error() != byNameErr.Error() {
		t.Errorf("CheckName(swim) = %v, want ByName's error %v", err, byNameErr)
	}
}

// TestCheckNameAllocFree pins the name check of every run request at no
// allocations: it looks the name up and builds no Profile.
func TestCheckNameAllocFree(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if CheckName("vortex") != nil {
			t.Fatal("vortex unknown")
		}
	}); n != 0 {
		t.Errorf("CheckName allocates %v times per call, want 0", n)
	}
}

// TestByNameReturnsOwnSlices checks that a caller changing a returned
// Profile's slices does not change the next ByName result.
func TestByNameReturnsOwnSlices(t *testing.T) {
	for _, name := range []string{"gcc", "flux"} {
		want, _ := ByName(name)
		p, _ := ByName(name)
		p.CondBias[0] = -1
		p.Regions[0].Weight = -1
		p.Regions = append(p.Regions[:0], RegionSpec{})
		if len(p.Phases) > 0 {
			p.Phases[0].Map[0] = -1
		}
		got, _ := ByName(name)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%q) changed after a caller mutated an earlier result", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	const n = 5000
	collect := func() []isa.Inst {
		g := MustNew(Vpr(), 7)
		out := make([]isa.Inst, 0, n)
		for i := 0; i < n; i++ {
			in, ok := g.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			out = append(out, in)
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Different seed must diverge.
	g2 := MustNew(Vpr(), 8)
	diverged := false
	for i := 0; i < n; i++ {
		in, _ := g2.Next()
		if in != a[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("different seeds should produce different streams")
	}
}

func TestInstructionMixRoughlyMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		g := MustNew(p, 1)
		const n = 60000
		var loads, stores, branches, fps int
		for i := 0; i < n; i++ {
			in, ok := g.Next()
			if !ok {
				t.Fatalf("%s: stream ended", p.Name)
			}
			switch in.Op {
			case isa.OpLoad:
				loads++
			case isa.OpStore:
				stores++
			case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpReturn:
				branches++
			case isa.OpFPALU, isa.OpFPMul, isa.OpFPDiv:
				fps++
			}
		}
		lf := float64(loads) / n
		sf := float64(stores) / n
		// Terminators dilute the body mix; allow a generous band.
		if lf < p.LoadFrac*0.6 || lf > p.LoadFrac*1.2 {
			t.Errorf("%s: load frac %.3f vs profile %.3f", p.Name, lf, p.LoadFrac)
		}
		if sf < p.StoreFrac*0.6 || sf > p.StoreFrac*1.2 {
			t.Errorf("%s: store frac %.3f vs profile %.3f", p.Name, sf, p.StoreFrac)
		}
		bf := float64(branches) / n
		if bf < 0.05 || bf > 0.40 {
			t.Errorf("%s: control frac %.3f out of plausible band", p.Name, bf)
		}
		if p.FPFrac > 0.2 && fps == 0 {
			t.Errorf("%s: FP-heavy profile generated no FP ops", p.Name)
		}
	}
}

func TestValidInstructions(t *testing.T) {
	g := MustNew(Gcc(), 3)
	var prevNextPC uint64
	for i := 0; i < 30000; i++ {
		in, ok := g.Next()
		if !ok {
			t.Fatal("stream ended")
		}
		if !in.Op.Valid() {
			t.Fatalf("instruction %d has invalid op", i)
		}
		if in.Op.IsMem() {
			if in.Addr < dataBase {
				t.Fatalf("instruction %d: memory address %#x inside code", i, in.Addr)
			}
			if in.Size == 0 {
				t.Fatalf("instruction %d: zero access size", i)
			}
		}
		if in.Op.IsCtrl() && in.Taken && in.Target == 0 {
			t.Fatalf("instruction %d: taken control with zero target", i)
		}
		if in.PC < codeBase {
			t.Fatalf("instruction %d: PC %#x below code base", i, in.PC)
		}
		// Control flow consistency: each instruction must start where the
		// previous one said it would.
		if i > 0 && in.PC != prevNextPC {
			t.Fatalf("instruction %d: PC %#x, predecessor promised %#x", i, in.PC, prevNextPC)
		}
		prevNextPC = in.NextPC()
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	g := MustNew(Vortex(), 5)
	depth := 0
	maxDepth := 0
	for i := 0; i < 100000; i++ {
		in, _ := g.Next()
		switch in.Op {
		case isa.OpCall:
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case isa.OpReturn:
			depth--
			if depth < 0 {
				t.Fatal("return without call")
			}
		}
	}
	if maxDepth == 0 {
		t.Error("no calls generated")
	}
	if maxDepth > 64 {
		t.Errorf("call depth %d implausible", maxDepth)
	}
}

func TestRegionKinds(t *testing.T) {
	for k, want := range map[RegionKind]string{
		Stream: "stream", Strided: "strided", Chase: "chase",
		Hot: "hot", Stack: "stack", RegionKind(99): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("RegionKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestMcfChasesSerialize(t *testing.T) {
	// mcf's chase loads should frequently carry a dependence on the
	// previous chase load — the serialization that defines its behaviour.
	g := MustNew(Mcf(), 2)
	var chaseLoads, serialized int
	for i := 0; i < 50000; i++ {
		in, _ := g.Next()
		if in.Op == isa.OpLoad && in.Addr >= dataBase && in.Addr < dataBase+4*MB+1*MB {
			chaseLoads++
			if in.SrcDist1 > 0 && in.SrcDist1 < 512 {
				serialized++
			}
		}
	}
	if chaseLoads < 1000 {
		t.Fatalf("too few chase loads: %d", chaseLoads)
	}
	if float64(serialized)/float64(chaseLoads) < 0.8 {
		t.Errorf("only %d/%d chase loads serialized", serialized, chaseLoads)
	}
}

func TestWorkingSetDistinctness(t *testing.T) {
	// mcf must touch far more distinct blocks than mesa over the same
	// window: that is the locality contrast the paper's results rest on.
	distinct := func(p Profile) int {
		g := MustNew(p, 1)
		seen := map[uint64]bool{}
		for i := 0; i < 80000; i++ {
			in, _ := g.Next()
			if in.Op.IsMem() {
				seen[in.Addr/64] = true
			}
		}
		return len(seen)
	}
	m, s := distinct(Mcf()), distinct(Mesa())
	if m < 3*s {
		t.Errorf("mcf distinct blocks (%d) should dwarf mesa (%d)", m, s)
	}
}

func TestLayoutMatchesGeneratedAddresses(t *testing.T) {
	for _, p := range Profiles() {
		ranges := Layout(p)
		if len(ranges) != len(p.Regions) {
			t.Fatalf("%s: %d ranges for %d regions", p.Name, len(ranges), len(p.Regions))
		}
		// Ranges must be disjoint and ordered.
		for i := 1; i < len(ranges); i++ {
			if ranges[i].Start <= ranges[i-1].End {
				t.Errorf("%s: ranges %d and %d overlap", p.Name, i-1, i)
			}
		}
		// Every generated memory address must fall inside some region's
		// range (Stack/Hot stay within Size; Stream/Chase wrap within).
		g := MustNew(p, 1)
		inRange := func(a uint64) bool {
			for _, r := range ranges {
				if a >= r.Start && a < r.End {
					return true
				}
			}
			return false
		}
		for i := 0; i < 20000; i++ {
			in, _ := g.Next()
			if in.Op.IsMem() && !inRange(in.Addr) {
				t.Fatalf("%s: address %#x outside all region ranges", p.Name, in.Addr)
			}
		}
	}
}

func TestLayoutSeedIndependent(t *testing.T) {
	a := Layout(Vpr())
	b := Layout(Vpr())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Layout must be deterministic")
		}
	}
}

func TestInvalidProfiles(t *testing.T) {
	bad := []Profile{
		{},
		{Name: "x", LoadFrac: 0.8, StoreFrac: 0.3, CodeBlocks: 10, MeanBlockLen: 5,
			Regions: []RegionSpec{{Kind: Hot, Weight: 1, Size: KB}}, DepGeomP: 0.5},
		{Name: "x", LoadFrac: 0.2, StoreFrac: 0.1, CodeBlocks: 2, MeanBlockLen: 5,
			Regions: []RegionSpec{{Kind: Hot, Weight: 1, Size: KB}}, DepGeomP: 0.5},
		{Name: "x", LoadFrac: 0.2, StoreFrac: 0.1, CodeBlocks: 10, MeanBlockLen: 5,
			DepGeomP: 0.5},
		{Name: "x", LoadFrac: 0.2, StoreFrac: 0.1, CodeBlocks: 10, MeanBlockLen: 5,
			Regions: []RegionSpec{{Kind: Hot, Weight: 1, Size: KB}}, DepGeomP: 1.5},
	}
	for i, p := range bad {
		if _, err := New(p, 1); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}
