package repro

// One benchmark per table/figure of the paper's evaluation (§5), plus
// micro-benchmarks for the core data structures. Each figure bench runs
// the corresponding experiment driver end to end on a reduced instruction
// budget and reports the headline number the paper plots, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature; use cmd/icrbench for
// full-budget runs.

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ecc"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchInstructions keeps a full figure regeneration tractable inside a
// testing.B iteration.
const benchInstructions = 100_000

func runFigure(b *testing.B, id string, metric func(*experiments.Result) float64, unit string) {
	b.Helper()
	if !experiments.Valid(id) {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Instructions: benchInstructions, Seed: 1}
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, opts)
		if err != nil {
			b.Fatal(err)
		}
		last = metric(res)
	}
	b.ReportMetric(last, unit)
}

// geomeanOfSeries returns the last value (the appended geomean column) of
// series i.
func geomeanOfSeries(i int) func(*experiments.Result) float64 {
	return func(r *experiments.Result) float64 {
		s := r.Series[i].Values
		return s[len(s)-1]
	}
}

// meanOfSeries averages series i across the x-axis.
func meanOfSeries(i int) func(*experiments.Result) float64 {
	return func(r *experiments.Result) float64 {
		s := r.Series[i].Values
		var sum float64
		for _, v := range s {
			sum += v
		}
		return sum / float64(len(s))
	}
}

func BenchmarkFig01ReplicationAbilityAttempts(b *testing.B) {
	runFigure(b, "fig1", meanOfSeries(1), "mean-repl-ability")
}

func BenchmarkFig02LoadsWithReplicaAttempts(b *testing.B) {
	runFigure(b, "fig2", meanOfSeries(1), "mean-loads-with-replica")
}

func BenchmarkFig03TwoReplicaAbility(b *testing.B) {
	runFigure(b, "fig3", meanOfSeries(2), "mean-double-ability")
}

func BenchmarkFig04MissRateTwoReplicas(b *testing.B) {
	runFigure(b, "fig4", meanOfSeries(2), "mean-miss-rate")
}

func BenchmarkFig05VerticalVsHorizontal(b *testing.B) {
	runFigure(b, "fig5", meanOfSeries(1), "mean-loads-with-replica")
}

func BenchmarkFig06ReplicationAbilityLSvsS(b *testing.B) {
	runFigure(b, "fig6", meanOfSeries(0), "mean-LS-repl-ability")
}

func BenchmarkFig07LoadsWithReplicaLSvsS(b *testing.B) {
	runFigure(b, "fig7", meanOfSeries(0), "mean-LS-loads-with-replica")
}

func BenchmarkFig08MissRates(b *testing.B) {
	runFigure(b, "fig8", meanOfSeries(1), "mean-LS-miss-rate")
}

func BenchmarkFig09NormalizedCyclesAggressive(b *testing.B) {
	// Series 1 is BaseECC; its geomean column is the paper's "~30%".
	runFigure(b, "fig9", geomeanOfSeries(1), "baseecc-norm-cycles")
}

func BenchmarkFig10DecayWindowReplication(b *testing.B) {
	runFigure(b, "fig10", meanOfSeries(1), "mean-loads-with-replica")
}

func BenchmarkFig11DecayWindowCycles(b *testing.B) {
	runFigure(b, "fig11", meanOfSeries(0), "icr-p-ps-norm-cycles")
}

func BenchmarkFig12NormalizedCyclesRelaxed(b *testing.B) {
	runFigure(b, "fig12", geomeanOfSeries(1), "baseecc-norm-cycles")
}

func BenchmarkFig13WindowReplicationAllBench(b *testing.B) {
	runFigure(b, "fig13", meanOfSeries(3), "mean-loads-with-replica-w1000")
}

func BenchmarkFig14UnrecoverableLoads(b *testing.B) {
	// Series 0 is BaseP at the highest injection rate.
	runFigure(b, "fig14", func(r *experiments.Result) float64 {
		return r.Series[0].Values[0]
	}, "basep-unrecoverable-frac")
}

func BenchmarkFig15LeaveReplicas(b *testing.B) {
	runFigure(b, "fig15", geomeanOfSeries(2), "icr-p-ps-norm-cycles")
}

func BenchmarkFig16WriteThrough(b *testing.B) {
	runFigure(b, "fig16", geomeanOfSeries(1), "wt-energy-ratio")
}

func BenchmarkFig17SpeculativeECC(b *testing.B) {
	runFigure(b, "fig17", geomeanOfSeries(0), "spec-ecc-cycle-ratio")
}

func BenchmarkFaultModels(b *testing.B) {
	runFigure(b, "faultmodels", meanOfSeries(0), "basep-unrecoverable-frac")
}

func BenchmarkSensitivity(b *testing.B) {
	runFigure(b, "sensitivity", meanOfSeries(1), "mean-loads-with-replica")
}

func BenchmarkVictimPolicyAblation(b *testing.B) {
	runFigure(b, "victims", meanOfSeries(0), "deadonly-loads-with-replica")
}

func BenchmarkSoftwareHints(b *testing.B) {
	runFigure(b, "swhints", meanOfSeries(1), "hinted-miss-rate")
}

func BenchmarkRCacheBaseline(b *testing.B) {
	runFigure(b, "rcache", meanOfSeries(1), "rcache-loads-covered")
}

func BenchmarkScrubbing(b *testing.B) {
	runFigure(b, "scrub", func(r *experiments.Result) float64 {
		v := r.Series[0].Values
		return v[len(v)-1] // BaseP at the fastest scrub interval
	}, "basep-unrecoverable-frac")
}

func BenchmarkVulnerability(b *testing.B) {
	runFigure(b, "vulnerability", meanOfSeries(0), "basep-vuln-fraction")
}

func BenchmarkMTTFProjection(b *testing.B) {
	runFigure(b, "mttf", meanOfSeries(0), "basep-loss-FIT")
}

func BenchmarkDecayPredictors(b *testing.B) {
	runFigure(b, "decaypred", meanOfSeries(4), "adaptive-loads-with-replica")
}

func BenchmarkPrefetchAblation(b *testing.B) {
	runFigure(b, "prefetch", geomeanOfSeries(1), "basep-prefetch-norm-cycles")
}

func BenchmarkAdaptiveShootout(b *testing.B) {
	runFigure(b, "adaptive", meanOfSeries(10), "adapt-decay-score")
}

func BenchmarkTwoTierShootout(b *testing.B) {
	runFigure(b, "twotier", meanOfSeries(2), "icr-l1-twotier-score")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks
// ---------------------------------------------------------------------------

func BenchmarkSECDEDEncode(b *testing.B) {
	var acc uint8
	for i := 0; i < b.N; i++ {
		acc ^= ecc.EncodeSECDED(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = acc
}

func BenchmarkSECDEDCheckCorrect(b *testing.B) {
	word := uint64(0xdeadbeefcafebabe)
	check := ecc.EncodeSECDED(word)
	flipped := word ^ (1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, r := ecc.CheckSECDED(flipped, check); r != ecc.CorrectedSingle {
			b.Fatal("unexpected result")
		}
	}
}

func BenchmarkParityLine(b *testing.B) {
	data := make([]byte, 64)
	parity := make([]byte, ecc.ParityBytesPerLine(64))
	for i := range data {
		data[i] = byte(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecc.EncodeParityLine(data, parity)
	}
}

func BenchmarkICRCacheLoadHit(b *testing.B) {
	mem := cache.NewMemory(6, 64)
	c := core.New(core.Config{
		Size: 16 << 10, Assoc: 4, BlockSize: 64,
		Scheme: core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores),
		Next:   mem, Mem: mem,
	})
	c.Store(0, 0x1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(uint64(i), 0x1000)
	}
}

func BenchmarkICRCacheStoreReplicate(b *testing.B) {
	mem := cache.NewMemory(6, 64)
	c := core.New(core.Config{
		Size: 16 << 10, Assoc: 4, BlockSize: 64,
		Scheme: core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores),
		Next:   mem, Mem: mem,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Store(uint64(i), uint64(i%256)*64)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	g := workload.MustNew(workload.Gcc(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("stream ended")
		}
	}
}

// BenchmarkWorkloadGenerationWarm is BenchmarkWorkloadGeneration for the
// functional-warming stream, filled 256 instructions at a time as
// cpu.RunWarming does; one op is one instruction.
func BenchmarkWorkloadGenerationWarm(b *testing.B) {
	g := workload.MustNew(workload.Gcc(), 1)
	buf := make([]isa.Inst, 256)
	b.ResetTimer()
	for n := 0; n < b.N; n += len(buf) {
		g.FillWarm(buf[:min(len(buf), b.N-n)])
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	// Whole-machine simulation throughput (instructions/op ≈ 50k).
	r := config.NewRun("gzip", core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores))
	r.Instructions = 50_000
	// Untimed steady-state warm-up: populates the sim instance pool and
	// the memory's lazy block store so allocs/op is benchtime-independent.
	if _, err := sim.Simulate(config.Default(), r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(config.Default(), r); err != nil {
			b.Fatal(err)
		}
	}
}
