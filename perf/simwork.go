package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// variants is how many input variants the stored reference data covers.
// The --seed flag picks one. A variant changes the fault-injection seeds
// of the sim workloads, which keep one workload seed so that every variant
// simulates the same instruction streams at the same cost, and the sweep
// seed of sweep-cold.
const variants = 4

func variantOf(seed int64) int {
	return int(((seed % variants) + variants) % variants)
}

const (
	exactBudget   = 400_000
	sampledBudget = 8_000_000
	faultProb     = 1e-4
)

type namedRun struct {
	label string
	run   config.Run
}

var (
	icrPS = core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores)
	icrPP = core.ICR(core.ECCProt, core.LookupParallel, core.ReplLoadsStores)
)

// relaxedRepl is the §5.4 replication setup the figure drivers use for
// ICR schemes: one vertical replica, dead-first victims, 1000-cycle decay.
func relaxedRepl() core.ReplConfig {
	m := config.Default()
	return core.ReplConfig{
		Distances:   core.VerticalDistances(m.DL1Sets()),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
}

// exactMatrix is sim-exact's fixed set of detailed runs, all with random
// fault injection. The fault model is set explicitly: a FaultConfig with a
// probability and a zero Model panics inside fault.(*Injector).Flips.
func exactMatrix(v int) []namedRun {
	mk := func(bench string, s core.Scheme) config.Run {
		r := config.NewRun(bench, s)
		r.Instructions = exactBudget
		r.Fault = faults(v)
		if s.HasReplication() {
			r.Repl = relaxedRepl()
		}
		return r
	}
	var out []namedRun
	for _, bench := range []string{"gzip", "mcf"} {
		for _, s := range []core.Scheme{core.BaseP(), core.BaseECC(false), icrPS, icrPP} {
			out = append(out, namedRun{bench + "/" + s.Name(), mk(bench, s)})
		}
	}
	ad := mk("flux", icrPS)
	ad.Adapt = adapt.Config{Predictor: adapt.PredictorDecay}
	out = append(out, namedRun{"flux/ICR-ADAPT-decay", ad})

	tt := mk("gzip", icrPS)
	tt.TwoTier = config.TwoTier{
		Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000, CrossTier: true,
		Fault: config.FaultConfig{Model: fault.Random, Prob: faultProb, Seed: 200 + int64(v)},
	}
	out = append(out, namedRun{"gzip/ICR-P-PS(S)/twotier-ICR-P+x", tt})
	return out
}

// faults is variant v's random fault injection into the dL1.
func faults(v int) config.FaultConfig {
	return config.FaultConfig{Model: fault.Random, Prob: faultProb, Seed: 100 + int64(v)}
}

// sampledMatrix is sim-sampled's set: SMARTS-sampled runs at the default
// window geometry, with fault injection.
func sampledMatrix(v int) []namedRun {
	var out []namedRun
	for _, bench := range []string{"gzip", "vpr", "mcf"} {
		r := config.NewRun(bench, icrPS)
		r.Instructions = sampledBudget
		r.Fault = faults(v)
		r.Repl = relaxedRepl()
		r.Sample = config.SampleConfig{Period: config.DefaultSamplePeriod}
		out = append(out, namedRun{bench + "/" + icrPS.Name(), r})
	}
	return out
}

func digest(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

func ipc(rep *metrics.Report) float64 {
	return ratio(float64(rep.Instructions), float64(rep.Cycles))
}

// simWorkload runs a fixed matrix serially through sim.Simulate, pass after
// pass, checking every report against its stored digest.
type simWorkload struct {
	name    string
	variant int
	runs    []namedRun
	rec     *recorder
	warmup  uint64 // set-up instruction budget per run
	sampled bool
}

func newSimWorkload(name string, v int, rec *recorder) *simWorkload {
	w := &simWorkload{name: name, variant: v, rec: rec}
	if name == "sim-sampled" {
		w.runs, w.warmup, w.sampled = sampledMatrix(v), 4*config.DefaultSamplePeriod, true
	} else {
		w.runs, w.warmup = exactMatrix(v), 50_000
	}
	return w
}

// setup brings the simulator's instance pool to steady state with one
// short run per configuration.
func (w *simWorkload) setup() error {
	for _, nr := range w.runs {
		r := nr.run
		r.Instructions = w.warmup
		if _, err := w.rec.simulate(context.Background(), config.Default(), r); err != nil {
			return fmt.Errorf("%s: %w", nr.label, err)
		}
	}
	w.rec.reset()
	return nil
}

func (w *simWorkload) run(d time.Duration) (*outcome, error) {
	out := &outcome{workers: 1, layer: map[string]float64{}}
	m := config.Default()
	start := time.Now()
	deadline := start.Add(d)
	worstErr := 0.0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		passStart := time.Now()
		for _, nr := range w.runs {
			var rep *metrics.Report
			var err error
			w.rec.bracket(1, func() { rep, err = w.rec.simulate(context.Background(), m, nr.run) })
			out.attempted++
			if err != nil {
				out.fail("%s: %v", nr.label, err)
				continue
			}
			key := fmt.Sprintf("%s/%d/%s", w.name, w.variant, nr.label)
			if got, want := digest(rep), ref.Digests[key]; got != want {
				out.fail("%s: report digest %s, want %s", key, got, want)
			}
			if w.sampled {
				exact := ref.ExactIPC[fmt.Sprintf("%d/%s", w.variant, nr.label)]
				worstErr = math.Max(worstErr, 100*math.Abs(ipc(rep)-exact)/exact)
			}
		}
		out.ops = append(out.ops, ms(time.Since(passStart)))
	}
	out.wall = time.Since(start).Seconds()
	_, sims := w.rec.snapshot()
	_, cost := runCosts(sims)
	out.opMS, out.missMS = sum(cost), median(cost)
	out.layer["sim.ipc_err_pct"] = worstErr
	return out, nil
}
