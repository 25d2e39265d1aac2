package sim

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
)

// The kernel-equivalence goldens pin the exact metrics.Report JSON the
// simulator produced *before* the hot-path optimizations (scratch buffers,
// O(1) RUU lookups, copy-free memory fetches). Any optimization that
// changes a single reported number — a counter, a latency, an energy
// figure — fails this test. Regenerate only when a deliberate
// model-behaviour change is being made:
//
//	go test ./internal/sim -run TestKernelEquivalenceGoldens -update-equivalence
var updateEquivalence = flag.Bool("update-equivalence", false,
	"rewrite the kernel equivalence goldens from the current simulator")

// equivInstrs keeps the 10-scheme × 3-seed × 2-benchmark matrix around a
// second of wall time while still reaching steady-state cache behaviour.
const equivInstrs = 40_000

// equivRun is one pinned run, its subtest name and the golden file it is
// compared against.
type equivRun struct {
	name    string
	file    string
	machine config.Machine
	run     config.Run
}

// matrixRun names a run by benchmark, scheme and seed, the way the scheme
// matrix always has.
func matrixRun(r config.Run) equivRun {
	return equivRun{fmt.Sprintf("%s/seed%d", r.Name(), r.Seed), goldenName(&r), config.Default(), r}
}

// pinRun names a run after its golden file, for runs that differ from a
// matrix entry only in options the scheme name does not show.
func pinRun(file string, r config.Run) equivRun {
	return equivRun{strings.TrimSuffix(file, ".json"), file, config.Default(), r}
}

// equivalenceRuns is the scheme matrix — all ten §3.2 schemes, three
// workload seeds, two benchmarks, with a modest fault-injection rate so
// the verify/recovery paths (parity checks, replica repair, ECC
// correction, L2 refill) execute and their counters are pinned too —
// followed by the paths the matrix leaves out (pathPins).
func equivalenceRuns() []equivRun {
	var runs []equivRun
	for _, bench := range []string{"gzip", "vpr"} {
		for _, s := range core.AllSchemes() {
			for seed := int64(1); seed <= 3; seed++ {
				r := config.NewRun(bench, s)
				r.Instructions = equivInstrs
				r.Seed = seed
				r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-4, Seed: seed}
				runs = append(runs, matrixRun(r))
			}
		}
	}
	return append(runs, pathPins()...)
}

// pathPins covers every per-cycle hook and both simulation modes beyond
// the static matrix: mcf's long-latency stalls (the core's idle-cycle
// path), the adaptive epoch ticker under both predictors, the two-tier
// injector with cross-tier placement, the scrub ticker, a sampled run
// whose warming segments drain the pipeline and drive the hooks with a
// jumped clock, and the dL1's optional structures: a write-through dL1
// with its write buffer, a duplication cache, and prefetching into dead
// lines. The last three run on vortex, gcc and parser, whose Hot-region
// Zipf shapes the scheme matrix does not reach. The last four pins run on
// machines other than config.Default(): the §5.6 replica-served miss
// against a cross-tier L2 shrunk to 32KB, a sampled run whose iL1 is
// shrunk to 1KB, so detailed windows end with fetch waiting on an iL1
// miss and that drawn instruction must be warmed first, and an 8-wide
// and a 1-wide core.
func pathPins() []equivRun {
	m := config.Default()
	relaxed := core.ReplConfig{
		Distances:   core.VerticalDistances(m.DL1Sets()),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
	icrPS := core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores)
	icrPP := core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores)
	mk := func(bench string, s core.Scheme) config.Run {
		r := config.NewRun(bench, s)
		r.Instructions = equivInstrs
		r.Seed = 1
		r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-4, Seed: 1}
		if s.HasReplication() {
			r.Repl = relaxed
		}
		return r
	}
	var runs []equivRun
	for _, s := range []core.Scheme{core.BaseP(), core.BaseECC(false), icrPS, icrPP} {
		runs = append(runs, matrixRun(mk("mcf", s)))
	}

	ad := mk("flux", icrPS)
	ad.Instructions = 200_000 // several 20k-cycle epochs
	ad.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	runs = append(runs, pinRun("flux_ICR-ADAPT-decay_seed1.json", ad))
	ehc := ad
	ehc.Adapt = adapt.Config{Predictor: adapt.PredictorEHC}
	runs = append(runs, pinRun("flux_ICR-ADAPT-ehc_seed1.json", ehc))

	tt := mk("mcf", icrPS)
	tt.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 13},
	}
	runs = append(runs, pinRun("mcf_ICR-P-PS-S_twotier-ICR-P+x_seed1.json", tt))

	// The tier's remaining options: SEC-DED alone and under replication,
	// every victim policy but the matrix's dead-first, decay 0, the remote
	// latency, column and adjacent tier faults, and cross-tier placement
	// against a non-replicating L1.
	tierFault := func(m fault.Model) config.FaultConfig {
		return config.FaultConfig{Model: m, Prob: 1e-2, Seed: 13}
	}
	te := mk("mcf", core.BaseECC(false))
	te.TwoTier = config.TwoTier{Protect: core.ECCProt, Fault: tierFault(fault.Column)}
	runs = append(runs, pinRun("mcf_BaseECC_twotier-ECC-column_seed1.json", te))

	tr := mk("mcf", icrPS)
	tr.TwoTier = config.TwoTier{
		Protect: core.ECCProt, Replicate: true, Victim: core.ReplicaFirst, DecayWindow: 0,
		Fault: tierFault(fault.Adjacent),
	}
	runs = append(runs, pinRun("mcf_ICR-P-PS-S_twotier-ICR-ECC-replicafirst-decay0-adjacent_seed1.json", tr))

	tl := mk("mcf", icrPP)
	tl.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.ReplicaOnly, DecayWindow: 1000,
		CrossTier: true, ExtraLatency: 40, Fault: tierFault(fault.Random),
	}
	runs = append(runs, pinRun("mcf_ICR-ECC-PP-LS_twotier-ICR-P+x-replicaonly-lat40_seed1.json", tl))

	tg := mk("gzip", core.BaseP())
	tg.TwoTier = config.TwoTier{Protect: core.ParityProt, Replicate: true, Victim: core.DeadOnly, CrossTier: true}
	runs = append(runs, pinRun("gzip_BaseP_twotier-ICR-P+x_seed1.json", tg))

	sc := mk("mcf", icrPS)
	sc.ScrubInterval = 5000
	runs = append(runs, pinRun("mcf_ICR-P-PS-S_scrub5000_seed1.json", sc))

	sa := mk("vpr", icrPS)
	sa.Instructions = 200_000
	sa.Sample = config.SampleConfig{Period: 20_000}
	runs = append(runs, pinRun("vpr_ICR-P-PS-S_sampled20k_seed1.json", sa))

	wt := mk("vortex", core.BaseP())
	wt.WriteThrough = true
	runs = append(runs, pinRun("vortex_BaseP_writethrough8_seed1.json", wt))

	dup := mk("gcc", core.BaseP())
	dup.DupCacheKB = 2
	runs = append(runs, pinRun("gcc_BaseP_dup2k_seed1.json", dup))

	pf := mk("parser", icrPS)
	pf.Prefetch = true
	runs = append(runs, pinRun("parser_ICR-P-PS-S_prefetch_seed1.json", pf))

	// §5.6 replica-served misses that reuse a guest or prefetched way. A
	// 32KB second tier evicts blocks the dL1 still holds, so a guest bit
	// left on the reused way would reach the tier's DropReplica.
	lv := mk("gcc", core.ICR(core.ParityProt, core.LookupSerial, core.ReplLoadsStores))
	lv.Instructions = 200_000
	lv.Repl.LeaveReplicas = true
	lv.Prefetch = true
	lv.TwoTier = config.TwoTier{Protect: core.ParityProt, Replicate: true, Victim: core.ReplicaOnly, DecayWindow: 1000, CrossTier: true}
	small := pinRun("gcc_ICR-P-PS-LS_leave-prefetch_twotier32k-ICR-P+x-replicaonly_seed1.json", lv)
	small.machine.L2Size = 32 << 10
	runs = append(runs, small)

	si := mk("gcc", icrPS)
	si.Instructions = 200_000
	si.Sample = config.SampleConfig{Period: 20_000}
	tinyIL1 := pinRun("gcc_ICR-P-PS-S_sampled20k_il1-1k_seed1.json", si)
	tinyIL1.machine.IL1Size = 1 << 10
	runs = append(runs, tinyIL1)

	// Two cores other than Table 1's. The wide one fills an RUU of 64
	// from an 8-wide front end; the narrow one runs every stage one
	// instruction wide around a 4-entry RUU, sampled, so its detailed
	// windows start and end on a nearly empty pipeline.
	wc := mk("gcc", icrPP)
	wide := pinRun("gcc_ICR-ECC-PP-LS_core-wide8-ruu64_seed1.json", wc)
	wide.machine.CPU.FetchWidth, wide.machine.CPU.IssueWidth, wide.machine.CPU.CommitWidth = 8, 8, 8
	wide.machine.CPU.RUUSize, wide.machine.CPU.LSQSize, wide.machine.CPU.FetchQueue = 64, 32, 16
	wide.machine.CPU.MemPorts = 2
	runs = append(runs, wide)

	nc := mk("parser", icrPS)
	nc.Instructions = 200_000
	nc.Sample = config.SampleConfig{Period: 20_000}
	narrow := pinRun("parser_ICR-P-PS-S_sampled20k_core-narrow1-ruu4_seed1.json", nc)
	narrow.machine.CPU.FetchWidth, narrow.machine.CPU.IssueWidth, narrow.machine.CPU.CommitWidth = 1, 1, 1
	narrow.machine.CPU.RUUSize, narrow.machine.CPU.LSQSize, narrow.machine.CPU.FetchQueue = 4, 2, 1
	return append(runs, narrow)
}

// goldenName maps a run to its golden file name (scheme names contain
// parentheses; keep the files shell-friendly).
func goldenName(r *config.Run) string {
	s := strings.NewReplacer("(", "-", ")", "").Replace(r.Scheme.Name())
	return fmt.Sprintf("%s_%s_seed%d.json", r.Benchmark, s, r.Seed)
}

func TestKernelEquivalenceGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "equivalence")
	if *updateEquivalence {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, er := range equivalenceRuns() {
		t.Run(er.name, func(t *testing.T) { checkEquivalence(t, er, *updateEquivalence) })
	}
}

// checkEquivalence simulates one pinned run and compares its report with
// the golden, or rewrites the golden when update is set.
func checkEquivalence(t *testing.T, er equivRun, update bool) {
	rep, err := Simulate(er.machine, er.run)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "equivalence", er.file)
	if update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update-equivalence): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report diverged from the pre-optimization kernel\n got: %s\nwant: %s", got, want)
	}
}

// TestEquivalenceGoldensArePinned keeps testdata/equivalence honest: every
// file in it is read by exactly one pinned run, so a renamed or dropped
// pin cannot leave an unchecked golden behind (or two runs share one).
func TestEquivalenceGoldensArePinned(t *testing.T) {
	pinned := make(map[string]bool)
	for _, er := range equivalenceRuns() {
		if pinned[er.file] {
			t.Errorf("golden %s is pinned by more than one run", er.file)
		}
		pinned[er.file] = true
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "equivalence"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !pinned[e.Name()] {
			t.Errorf("testdata/equivalence/%s is read by no pinned run: delete it or pin it", e.Name())
		}
	}
	if len(entries) != len(pinned) {
		t.Errorf("testdata/equivalence holds %d files for %d pinned runs", len(entries), len(pinned))
	}
}
