package sim

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
)

// benchInstrs is the budget of the exact-mode benchmarks, which report
// simulated instructions per second as instr/s.
const benchInstrs = 100_000

// sampledBenchInstrs matches the committed validation table: at the
// default 50k/1k/400 geometry an 8M budget yields 160 measured windows
// and sub-percent IPC error (see EXPERIMENTS.md). The sampled benchmarks
// report effective instr/s: total committed instructions (warmed +
// detailed) over wall time.
const sampledBenchInstrs = 8_000_000

// icrPPSS is ICR-P-PS(S), the paper's headline scheme.
func icrPPSS() core.Scheme {
	return core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores)
}

// icrECCPPLS is ICR-ECC-PP(LS), the scheme that replicates the most.
func icrECCPPLS() core.Scheme {
	return core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores)
}

// adaptDecayRun is ICR-P-PS(S) with the decay-predictor controller on the
// flux phase-shifting workload: the per-epoch census and retuning must
// stay allocation-free.
func adaptDecayRun() config.Run {
	m := config.Default()
	r := config.NewRun("flux", icrPPSS())
	r.Repl = core.ReplConfig{
		Distances:   core.Power2Distances(m.DL1Sets(), 2),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: adapt.DefaultMaxWindow,
	}
	r.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	return r
}

// twoTierRun is an ICR L1 over an ICR-P tier with cross-tier placement and
// fault injection at both levels: the most loaded configuration the
// twotier sweep runs.
func twoTierRun() config.Run {
	m := config.Default()
	r := config.NewRun("gzip", icrPPSS())
	r.Repl = core.ReplConfig{
		Distances:   core.VerticalDistances(m.DL1Sets()),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	r.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst,
		DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 13},
	}
	return r
}

// sampledRun is a SMARTS-sampled run at the default geometry.
func sampledRun(bench string, scheme core.Scheme) config.Run {
	r := config.NewRun(bench, scheme)
	r.Sample = config.SampleConfig{
		Period: config.DefaultSamplePeriod,
		Detail: config.DefaultSampleDetail,
		Warmup: config.DefaultSampleWarmup,
	}
	return r
}

func benchRun(b *testing.B, r config.Run, instrs uint64) {
	b.Helper()
	r.Instructions = instrs
	m := config.Default()
	// One untimed run reaches steady state (instance pool populated,
	// architectural memory's lazy block store faulted in) so allocs/op is
	// the deterministic per-run figure TestSimulateSteadyStateAllocs
	// bounds, at any benchtime.
	if _, err := Simulate(m, r); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(m, r); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkSimulateBaseP(b *testing.B) {
	benchRun(b, config.NewRun("gzip", core.BaseP()), benchInstrs)
}

func BenchmarkSimulateBaseECC(b *testing.B) {
	benchRun(b, config.NewRun("gzip", core.BaseECC(false)), benchInstrs)
}

func BenchmarkSimulateICRPPSS(b *testing.B) {
	benchRun(b, config.NewRun("gzip", icrPPSS()), benchInstrs)
}

func BenchmarkSimulateICRECCPPLS(b *testing.B) {
	benchRun(b, config.NewRun("gzip", icrECCPPLS()), benchInstrs)
}

// BenchmarkSimulateICRAdaptDecay prices the runtime controller: the same
// ICR run as BenchmarkSimulateICRPPSS plus the per-epoch census and
// retuning on the flux phase-shifting workload.
func BenchmarkSimulateICRAdaptDecay(b *testing.B) {
	benchRun(b, adaptDecayRun(), benchInstrs)
}

// BenchmarkSimulateTwoTierICR prices the protected tier end to end.
func BenchmarkSimulateTwoTierICR(b *testing.B) {
	benchRun(b, twoTierRun(), benchInstrs)
}

func BenchmarkSampledBasePGzip(b *testing.B) {
	benchRun(b, sampledRun("gzip", core.BaseP()), sampledBenchInstrs)
}

func BenchmarkSampledBasePVpr(b *testing.B) {
	benchRun(b, sampledRun("vpr", core.BaseP()), sampledBenchInstrs)
}

func BenchmarkSampledICRECCPPLSVpr(b *testing.B) {
	benchRun(b, sampledRun("vpr", icrECCPPLS()), sampledBenchInstrs)
}
