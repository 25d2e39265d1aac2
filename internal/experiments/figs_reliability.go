package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// errorProbs is the §5.5 per-cycle injection-probability sweep. The paper
// notes these rates are deliberately unrealistic ("intense error
// behaviour") to make differences visible; at 1e-5 even BaseP tends to
// zero.
var errorProbs = []float64{1e-2, 1e-3, 1e-4, 1e-5}

// lossSweep runs each scheme on vortex at n sweep points, replicating
// schemes under the relaxed setup, and fills res with one series per
// scheme: the fraction of unrecoverable loads at each point.
func lossSweep(ctx context.Context, o Options, res *Result, schemes []core.Scheme, n int, point func(r *config.Run, i int)) (*Result, error) {
	relaxed := relaxedIfReplicating(o.sets())
	arms := make([]arm, len(schemes))
	for i, s := range schemes {
		arms[i] = o.sweepArm("vortex", s, n, func(r *config.Run, j int) {
			relaxed(r)
			point(r, j)
		})
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	for i, s := range schemes {
		res.Series = append(res.Series, Series{Label: s.Name(), Values: values(reps[i], (*metrics.Report).UnrecoverableFrac)})
	}
	res.Reports = all
	return res, nil
}

// fig14 — fraction of unrecoverable loads vs per-cycle error probability
// (random injection model) for vortex under BaseP, ICR-P-PS(S),
// ICR-ECC-PS(S), and BaseECC.
func fig14(ctx context.Context, o Options) (*Result, error) {
	res := &Result{
		ID:     "fig14",
		Sweep:  true,
		Title:  "Unrecoverable loads vs per-cycle error probability (vortex, random model)",
		XLabel: "P(error)/cycle",
		Notes:  "paper: ICR schemes are far more resilient than BaseP; BaseECC corrects all single-bit errors",
	}
	for _, p := range errorProbs {
		res.XTicks = append(res.XTicks, fmt.Sprintf("%g", p))
	}
	schemes := append(append([]core.Scheme{core.BaseP()}, recommended()...), core.BaseECC(false))
	return lossSweep(ctx, o, res, schemes, len(errorProbs), func(r *config.Run, i int) {
		r.Fault = config.FaultConfig{Model: fault.Random, Prob: errorProbs[i], Seed: 7}
	})
}

// faultModels — a companion sweep over the four §5.5 injection models at a
// fixed probability, showing the paper's claim that the models behave
// similarly.
func faultModels(ctx context.Context, o Options) (*Result, error) {
	models := []fault.Model{fault.Direct, fault.Adjacent, fault.Column, fault.Random}
	res := &Result{
		ID:     "faultmodels",
		Title:  "Unrecoverable loads per injection model (vortex, P=1e-3)",
		XLabel: "model",
		Notes:  "paper §5.5: overall results are similar across error models",
	}
	for _, md := range models {
		res.XTicks = append(res.XTicks, md.String())
	}
	return lossSweep(ctx, o, res, []core.Scheme{core.BaseP(), icrPS(core.ReplStores)}, len(models), func(r *config.Run, i int) {
		r.Fault = config.FaultConfig{Model: models[i], Prob: 1e-3, Seed: 7}
	})
}

// fig16 — the §5.8 write-through comparison: BaseP with a write-through
// dL1 (8-entry coalescing write buffer), normalized against ICR-P-PS(S)
// with a write-back dL1. Series (a) execution cycles, (b) L1+L2 energy.
func fig16(ctx context.Context, o Options) (*Result, error) {
	reps, all, err := runArms(ctx, o,
		o.benchArm(icrPS(core.ReplStores), relaxedIfReplicating(o.sets())),
		o.benchArm(core.BaseP(), func(r *config.Run) { r.WriteThrough = true }))
	if err != nil {
		return nil, err
	}
	icr, wt := reps[0], reps[1]
	energyL1L2 := func(r *metrics.Report) float64 { return r.EnergyL1 + r.EnergyL2 }
	return &Result{
		ID:     "fig16",
		Title:  "Write-through BaseP normalized to write-back ICR-P-PS(S)",
		XLabel: "benchmark",
		XTicks: benchTicks(),
		Series: []Series{
			{Label: "(a) cycles WT/ICR", Values: withGeoMean(ratios(wt, icr, cycles))},
			{Label: "(b) energy WT/ICR", Values: withGeoMean(ratios(wt, icr, energyL1L2))},
		},
		Notes:   "paper: ICR ~5.7% faster; write-through spends >2x the L1+L2 energy",
		Reports: all,
	}, nil
}

// fig17 — the §5.9 speculative-ECC comparison: BaseECC with 1-cycle
// speculative loads, normalized to the performance-optimized ICR-P-PS(S)
// (replicas left in place). Series: (a) execution cycles, (b) energy with
// parity:ECC = 15%:30% of an L1 access, (c) energy with 10%:30%.
func fig17(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	costed := func(s core.Scheme, parityFrac float64) arm {
		return o.benchArm(s, func(r *config.Run) {
			if s.HasReplication() {
				r.Repl = relaxedRepl(sets)
				r.Repl.LeaveReplicas = true
			}
			r.Energy = r.Energy.WithCheckCosts(parityFrac, 0.30)
		})
	}
	reps, all, err := runArms(ctx, o,
		costed(icrPS(core.ReplStores), 0.15), costed(core.BaseECC(true), 0.15),
		costed(icrPS(core.ReplStores), 0.10), costed(core.BaseECC(true), 0.10))
	if err != nil {
		return nil, err
	}
	icrB, specB, icrC, specC := reps[0], reps[1], reps[2], reps[3]
	energyL1L2 := func(r *metrics.Report) float64 {
		return r.EnergyL1 + r.EnergyL2 + r.EnergyChecks
	}
	return &Result{
		ID:     "fig17",
		Title:  "Speculative BaseECC normalized to performance-optimized ICR-P-PS(S)",
		XLabel: "benchmark",
		XTicks: benchTicks(),
		Series: []Series{
			{Label: "(a) cycles spec/ICR", Values: withGeoMean(ratios(specB, icrB, cycles))},
			{Label: "(b) energy 15:30", Values: withGeoMean(ratios(specB, icrB, energyL1L2))},
			{Label: "(c) energy 10:30", Values: withGeoMean(ratios(specC, icrC, energyL1L2))},
		},
		Notes:   "paper: ICR ~2.5% faster on average (30.8% on mcf); energy ~parity at 15:30, ~+3.1% for spec ECC at 10:30",
		Reports: all,
	}, nil
}

// sensitivity — the §5.7 cache-geometry sweep: replication ability and
// loads-with-replica for ICR-P-PS(S) across dL1 sizes and associativities.
// Each geometry is its own arm on its own machine.
func sensitivity(ctx context.Context, o Options) (*Result, error) {
	points := []struct {
		label string
		size  int
		assoc int
	}{
		{"8KB/4w", 8 << 10, 4},
		{"16KB/2w", 16 << 10, 2},
		{"16KB/4w", 16 << 10, 4},
		{"16KB/8w", 16 << 10, 8},
		{"32KB/4w", 32 << 10, 4},
	}
	res := &Result{
		ID:     "sensitivity",
		Title:  "Sensitivity to dL1 geometry (gzip+vpr mean, ICR-P-PS(S))",
		XLabel: "geometry",
		Notes:  "paper §5.7: ability grows with cache size; loads-with-replica barely moves",
	}
	arms := make([]arm, len(points))
	for i, pt := range points {
		m := o.machine()
		m.DL1Size, m.DL1Assoc = pt.size, pt.assoc
		opts := o
		opts.Machine = &m
		arms[i] = opts.namedArm([]string{"gzip", "vpr"}, icrPS(core.ReplStores), aggressive(opts.sets(), nil))
		res.XTicks = append(res.XTicks, pt.label)
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	mean := func(f func(*metrics.Report) float64) []float64 {
		out := make([]float64, len(reps))
		for i, rs := range reps {
			for _, r := range rs {
				out[i] += f(r) / 2
			}
		}
		return out
	}
	res.Series = []Series{
		{Label: "replication ability", Values: mean((*metrics.Report).ReplAbility)},
		{Label: "loads with replica", Values: mean((*metrics.Report).LoadsWithReplica)},
		{Label: "dL1 miss rate", Values: mean((*metrics.Report).DL1MissRate)},
	}
	res.Reports = all
	return res, nil
}

// lwrAndMiss returns a loads-with-replica and a miss-rate series per
// labelled arm, in arm order.
func lwrAndMiss(labels []string, reps [][]*metrics.Report) []Series {
	var out []Series
	for i, l := range labels {
		out = append(out,
			Series{Label: l + " lwr", Values: values(reps[i], (*metrics.Report).LoadsWithReplica)},
			Series{Label: l + " miss", Values: values(reps[i], (*metrics.Report).DL1MissRate)})
	}
	return out
}

// victimPolicies — an ablation over the §3.1 victim policies (not a paper
// figure; DESIGN.md design-decision 3).
func victimPolicies(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	policies := []core.VictimPolicy{core.DeadOnly, core.DeadFirst, core.ReplicaFirst, core.ReplicaOnly}
	arms := make([]arm, len(policies))
	labels := make([]string, len(policies))
	for i, pol := range policies {
		arms[i] = o.benchArm(icrPS(core.ReplStores), func(r *config.Run) {
			r.Repl = relaxedRepl(sets)
			r.Repl.Victim = pol
		})
		labels[i] = pol.String()
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:      "victims",
		Title:   "Victim-policy ablation (ICR-P-PS(S), window 1000)",
		XLabel:  "benchmark",
		XTicks:  workload.Names(),
		Series:  lwrAndMiss(labels, reps),
		Notes:   "dead-only is reliability-biased; replica-first preserves miss rate",
		Reports: all,
	}, nil
}
