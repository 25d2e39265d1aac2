package sim

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/workload"
)

// identityMatrix covers every construction-relevant knob the instance pool
// must absorb: schemes with and without replication/ECC, fault injection,
// scrubbing, write-through with a buffer, the duplicate cache, prefetch,
// decay variants, and sampled mode.
func identityMatrix() []config.Run {
	machine := config.Default()
	sets := machine.DL1Sets()
	repl := core.ReplConfig{
		Distances:   core.VerticalDistances(sets),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
	runs := []config.Run{
		config.NewRun("gzip", core.BaseP()),
		config.NewRun("vpr", core.BaseECC(true)),
	}
	r := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	runs = append(runs, r)

	r = config.NewRun("vpr", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores))
	r.Repl = repl
	r.Repl.LeaveReplicas = true
	runs = append(runs, r)

	r = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Repl.Decay = core.Adaptive
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	runs = append(runs, r)

	r = config.NewRun("vpr", core.ICR(core.ECCProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Fault = config.FaultConfig{Model: fault.Direct, Prob: 1e-3, Seed: 11}
	r.ScrubInterval = 5000
	runs = append(runs, r)

	r = config.NewRun("gzip", core.BaseP())
	r.WriteThrough = true
	runs = append(runs, r)

	r = config.NewRun("vpr", core.BaseECC(false))
	r.DupCacheKB = 8
	r.Prefetch = true
	runs = append(runs, r)

	r = config.NewRun("gzip", core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores))
	r.Repl = repl
	r.Sample = config.SampleConfig{Period: 20_000, Detail: 1_000, Warmup: 400}
	runs = append(runs, r)

	// An ICR-ADAPT run on a phase-shifting workload: the controller's own
	// state (ladder level, streaks, hold embargo, trajectory) must reset
	// with the arena, and its epoch-by-epoch retuning must replay
	// identically on a pooled instance.
	r = config.NewRun("flux", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = core.ReplConfig{
		Distances:   core.Power2Distances(sets, 2),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: adapt.DefaultMaxWindow,
	}
	r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	runs = append(runs, r)

	// Two-tier runs: a protected tier under a replicating L1 with
	// cross-tier placement both ways and faults injected at both tiers,
	// and a plain ECC tier under a base L1. The tier's arena (lines,
	// parity, ECC bytes, guest state) must reset with the instance, and
	// the tier fault injector is per-run state the shape key must ignore.
	r = config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Repl = repl
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	r.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst,
		DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 13},
	}
	runs = append(runs, r)

	r = config.NewRun("vpr", core.BaseECC(false))
	r.TwoTier = config.TwoTier{Protect: core.ECCProt, ExtraLatency: 20}
	runs = append(runs, r)

	for i := range runs {
		runs[i].Instructions = 120_000
	}
	return runs
}

// freshReport simulates r on a freshly built, never-pooled instance — the
// oracle the pooled path must match byte for byte.
func freshReport(t *testing.T, m config.Machine, r config.Run) []byte {
	t.Helper()
	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.New(profile, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Energy == (energy.Params{}) {
		r.Energy = energy.DefaultParams()
	}
	rep, err := newInstance(m, r).simulate(context.Background(), m, r, gen)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPooledInstanceByteIdentical pins the arena-reuse contract: a report
// produced on a pooled, reset instance is byte-identical to one from a
// fresh build. Each config runs once to populate the pool and once
// reusing it; both are compared against a never-pooled oracle.
func TestPooledInstanceByteIdentical(t *testing.T) {
	m := config.Default()
	for _, r := range identityMatrix() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			want := freshReport(t, m, r)
			for pass := 0; pass < 2; pass++ {
				rep, err := Simulate(m, r)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("pass %d diverged from fresh-instance oracle:\n got: %s\nwant: %s", pass, got, want)
				}
			}
		})
	}
}

// TestShapeOf pins the poolability rules: hinted runs never pool, and any
// construction-relevant knob must change the shape key.
func TestShapeOf(t *testing.T) {
	m := config.Default()
	base := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))

	if _, ok := shapeOf(m, base); !ok {
		t.Fatal("plain run should be poolable")
	}
	hinted := base
	hinted.Hints = core.ReplicateAll{}
	if _, ok := shapeOf(m, hinted); ok {
		t.Error("hinted run must not be poolable")
	}

	s0, _ := shapeOf(m, base)
	mutants := []func(*config.Machine, *config.Run){
		func(m *config.Machine, r *config.Run) { m.DL1Size *= 2 },
		func(m *config.Machine, r *config.Run) { m.L2Latency++ },
		func(m *config.Machine, r *config.Run) { m.MemLatency++ },
		func(m *config.Machine, r *config.Run) { r.Scheme = core.BaseECC(true) },
		func(m *config.Machine, r *config.Run) { r.Repl.Distances = []int{1, 2} },
		func(m *config.Machine, r *config.Run) { r.Repl.Replicas = 2 },
		func(m *config.Machine, r *config.Run) { r.Repl.Victim = core.DeadFirst },
		func(m *config.Machine, r *config.Run) { r.Repl.DecayWindow = 4096 },
		func(m *config.Machine, r *config.Run) { r.Repl.LeaveReplicas = true },
		func(m *config.Machine, r *config.Run) { r.Repl.Decay = core.Adaptive },
		func(m *config.Machine, r *config.Run) { r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay} },
		func(m *config.Machine, r *config.Run) { r.WriteThrough = true },
		func(m *config.Machine, r *config.Run) { r.DupCacheKB = 8 },
		func(m *config.Machine, r *config.Run) { r.Prefetch = true },
		func(m *config.Machine, r *config.Run) { r.TwoTier = config.TwoTier{Protect: core.ParityProt} },
		func(m *config.Machine, r *config.Run) {
			r.TwoTier = config.TwoTier{Protect: core.ParityProt, Replicate: true, CrossTier: true}
		},
		func(m *config.Machine, r *config.Run) {
			r.TwoTier = config.TwoTier{Protect: core.ECCProt, ExtraLatency: 20}
		},
	}
	for i, mut := range mutants {
		mm, rr := m, base
		mut(&mm, &rr)
		if s, _ := shapeOf(mm, rr); s == s0 {
			t.Errorf("mutant %d did not change the shape key", i)
		}
	}

	// Per-run state must NOT change the shape: these are absorbed by reset.
	same := []func(*config.Run){
		func(r *config.Run) { r.Benchmark = "vpr" },
		func(r *config.Run) { r.Seed = 99 },
		func(r *config.Run) { r.Instructions = 1 },
		func(r *config.Run) { r.Fault = config.FaultConfig{Model: fault.Direct, Prob: 0.5, Seed: 3} },
		func(r *config.Run) { r.ScrubInterval = 100 },
		func(r *config.Run) { r.Sample = config.SampleConfig{Period: 1000} },
		// Tier fault injection is per-run state: differently-seeded
		// injection runs must share one arena.
		func(r *config.Run) { r.TwoTier.Fault = config.FaultConfig{Model: fault.Direct, Prob: 0.5, Seed: 3} },
	}
	for i, mut := range same {
		rr := base
		mut(&rr)
		if s, _ := shapeOf(m, rr); s != s0 {
			t.Errorf("per-run mutant %d changed the shape key", i)
		}
	}
}

// TestInstancePoolBounds exercises the pool directly: shape matching,
// LIFO reuse, the idle cap, and the non-poolable drop path.
func TestInstancePoolBounds(t *testing.T) {
	p := &instancePool{max: 2}
	a := &instance{shape: "A"}
	b := &instance{shape: "B"}
	c := &instance{shape: "A"}

	if got := p.get("A"); got != nil {
		t.Fatal("empty pool returned an instance")
	}
	p.put(a)
	p.put(b)
	if got := p.get("A"); got != a {
		t.Fatalf("get(A) = %v, want a", got)
	}
	p.put(a)
	p.put(c) // over cap: evicts the oldest (b)
	if got := p.get("B"); got != nil {
		t.Error("evicted instance still retrievable")
	}
	if got := p.get("A"); got != c {
		t.Error("newest A not returned first")
	}
	p.put(&instance{shape: ""}) // non-poolable: dropped
	if got := p.get(""); got != nil {
		t.Error("non-poolable shape must never be served")
	}
}

// TestSimulateSteadyStateAllocs pins the arena-reuse win: once the pool is
// warm, a run allocates only its per-run state (workload generator, fault
// injector, hooks, report) — the cache arenas, RUU, and predictor tables
// are reused. Building the arena alone costs ~800 allocations (and
// megabytes), so the bounds below fail if pooling silently stops working.
// The cases after the first two cover the runs the sim benchmarks time;
// each bound is 1.25x the count in its trailing comment, measured when
// the bound was set.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	m := config.Default()
	cases := []struct {
		name  string
		run   config.Run
		bound float64
	}{
		{"basep", config.NewRun("gzip", core.BaseP()), 700},
		{"icr", config.NewRun("vpr", icrECCPPLS()), 1000},
		{"baseecc", config.NewRun("gzip", core.BaseECC(false)), 676},         // 541
		{"icr-p-ps-s", config.NewRun("gzip", icrPPSS()), 678},                // 543
		{"adapt-decay", adaptDecayRun(), 850},                                // 680
		{"twotier", twoTierRun(), 698},                                       // 559
		{"sampled-basep-gzip", sampledRun("gzip", core.BaseP()), 693},        // 555
		{"sampled-basep-vpr", sampledRun("vpr", core.BaseP()), 1011},         // 809
		{"sampled-icr-ecc-pp-ls-vpr", sampledRun("vpr", icrECCPPLS()), 1013}, // 811
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run
			r.Instructions = 50_000
			if r.Sample.Enabled() {
				// 20 windows at the default geometry. The count barely
				// depends on the budget: gzip BaseP allocates 552 at 400k
				// instructions and 562 at 8M.
				r.Instructions = 1_000_000
			}
			if _, err := Simulate(m, r); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(5, func() {
				if _, err := Simulate(m, r); err != nil {
					t.Fatal(err)
				}
			})
			if n > tc.bound {
				t.Errorf("steady-state Simulate allocates %.0f objects/run, want <= %.0f "+
					"(did the instance pool stop reusing arenas?)", n, tc.bound)
			}
		})
	}
}

// TestPoolReuseAcrossNewKnobConfigs pins the hazard resetcoverage exists
// to prevent: two configs that differ only in a per-run field — one that
// shapeOf zeroes — share a pool slot, so a reset that misses the field's
// per-run state would leak the first config's behaviour into the second.
// The cases cover every field class shapeOf zeroes. The A-B-A pattern
// forces one arena through both configs and compares every report
// against a never-pooled oracle.
func TestPoolReuseAcrossNewKnobConfigs(t *testing.T) {
	icr := config.NewRun("gzip", icrECCPPLS())
	cases := []struct {
		name string
		base config.Run
		mut  func(*config.Machine, *config.Run)
	}{
		{"benchmark", icr, func(_ *config.Machine, r *config.Run) { r.Benchmark = "vpr" }},
		{"seed", icr, func(_ *config.Machine, r *config.Run) { r.Seed = 2 }},
		{"budget", icr, func(_ *config.Machine, r *config.Run) { r.Instructions = 60_000 }},
		{"energy", icr, func(_ *config.Machine, r *config.Run) {
			r.Energy.L1Read *= 2
			r.Energy.ECCFrac *= 2
		}},
		{"fault", icr, func(_ *config.Machine, r *config.Run) {
			r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
		}},
		{"tier-fault", twoTierRun(), func(_ *config.Machine, r *config.Run) {
			r.TwoTier.Fault = config.FaultConfig{Model: fault.Direct, Prob: 2e-3, Seed: 5}
		}},
		{"scrub", icr, func(_ *config.Machine, r *config.Run) { r.ScrubInterval = 5_000 }},
		{"sample", icr, func(_ *config.Machine, r *config.Run) {
			r.Sample = config.SampleConfig{Period: 20_000, Detail: 1_000, Warmup: 400}
		}},
		{"cpu", icr, func(m *config.Machine, _ *config.Run) {
			m.CPU.RUUSize /= 2
			m.CPU.MemPorts = 1
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ma, a := config.Default(), tc.base
			a.Instructions = 120_000
			mb, b := ma, a
			tc.mut(&mb, &b)
			sa, okA := shapeOf(ma, a)
			sb, okB := shapeOf(mb, b)
			if !okA || !okB || sa != sb {
				t.Fatal("configs must share a pool shape for this test to bite")
			}
			wantA := freshReport(t, ma, a)
			wantB := freshReport(t, mb, b)
			if string(wantA) == string(wantB) {
				t.Fatal("the mutation must change the report for this test to bite")
			}
			steps := []struct {
				label string
				m     config.Machine
				run   config.Run
				want  []byte
			}{
				{"A-first", ma, a, wantA},
				{"B-on-A's-arena", mb, b, wantB},
				{"A-on-B's-arena", ma, a, wantA},
			}
			for _, step := range steps {
				rep, err := Simulate(step.m, step.run)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(step.want) {
					t.Fatalf("%s diverged from the fresh-instance oracle:\n got: %s\nwant: %s",
						step.label, got, step.want)
				}
			}
		})
	}
}

// TestSimulateRejectsNilRangePolicy pins the typed-nil guard: a Run whose
// Hints interface holds a nil *core.RangePolicy is an error, not a panic
// at the first replication trigger.
func TestSimulateRejectsNilRangePolicy(t *testing.T) {
	r := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Instructions = 2000
	var p *core.RangePolicy
	r.Hints = p
	rep, err := Simulate(config.Default(), r)
	if err == nil || rep != nil {
		t.Fatalf("Simulate = (%v, %v), want a nil report and an error", rep, err)
	}
	if !strings.Contains(err.Error(), "RangePolicy") {
		t.Errorf("error %q does not name the nil policy", err)
	}
}

// TestPooledMemoryKeepsOneRun runs gzip, vpr and mcf on one arena, as the
// pool hands it from run to run, and requires the architectural memory to
// end holding exactly the blocks mcf writes on a fresh arena: a reset
// drops what earlier runs wrote instead of carrying their union along.
// Each report must also match the fresh arena's byte for byte.
func TestPooledMemoryKeepsOneRun(t *testing.T) {
	m := config.Default()
	var pooled *instance
	for _, bench := range []string{"gzip", "vpr", "mcf"} {
		r := sampledRun(bench, icrPPSS())
		r.Instructions = 500_000
		r.Energy = energy.DefaultParams()
		if pooled == nil {
			pooled = newInstance(m, r)
		}
		profile, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newInstance(m, r)
		var reports [2][]byte
		for i, in := range []*instance{pooled, fresh} {
			rep, err := in.simulate(context.Background(), m, r, workload.MustNew(profile, r.Seed))
			if err != nil {
				t.Fatal(err)
			}
			if reports[i], err = json.Marshal(rep); err != nil {
				t.Fatal(err)
			}
		}
		if string(reports[0]) != string(reports[1]) {
			t.Fatalf("%s: the pooled arena's report differs from a fresh one's", bench)
		}
		if got, want := pooled.mem.Blocks(), fresh.mem.Blocks(); got != want || want == 0 {
			t.Errorf("%s: pooled memory holds %d blocks, a fresh run writes %d", bench, got, want)
		}
	}
}
