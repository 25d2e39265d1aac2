package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// aggressive returns the ICR-P-PS(S) mutation under aggressive decay,
// with tweak (may be nil) applied to its replication setup.
func aggressive(sets int, tweak func(*core.ReplConfig)) func(*config.Run) {
	return func(r *config.Run) {
		r.Repl = aggressiveRepl(sets)
		if tweak != nil {
			tweak(&r.Repl)
		}
	}
}

// twoAttempts places replicas at distance N/2, then N/4.
func twoAttempts(sets int) func(*core.ReplConfig) {
	return func(c *core.ReplConfig) { c.Distances = []int{sets / 2, sets / 4} }
}

// twoReplicas keeps up to two replicas, the first at N/2, the second at N/4.
func twoReplicas(sets int) func(*core.ReplConfig) {
	return func(c *core.ReplConfig) {
		c.Distances = []int{sets / 2, sets / 4}
		c.Replicas = 2
	}
}

// perBench is the shape of fig1-fig8: one series per labelled arm, each
// metric per benchmark, with the arms' reports in arm order.
func perBench(id, title, notes string, metric func(*metrics.Report) float64, labels []string, reps [][]*metrics.Report, all []*metrics.Report) *Result {
	res := &Result{ID: id, Title: title, XLabel: "benchmark", XTicks: workload.Names(), Notes: notes, Reports: all}
	for i, l := range labels {
		res.Series = append(res.Series, Series{Label: l, Values: values(reps[i], metric)})
	}
	return res
}

// placementArms are fig1/fig2's ICR-P-PS(S) runs under aggressive decay:
// a single placement attempt (N/2), then two attempts (N/2, N/4).
func placementArms(o Options) []arm {
	sets := o.sets()
	return []arm{
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, twoAttempts(sets))),
	}
}

var placementLabels = []string{"single (N/2)", "multi (N/2,N/4)"}

// fig1 — replication ability for single-attempt (distance N/2) vs
// multi-attempt (N/2 then N/4) placement, ICR-P-PS(S), aggressive decay.
func fig1(ctx context.Context, o Options) (*Result, error) {
	reps, all, err := runArms(ctx, o, placementArms(o)...)
	if err != nil {
		return nil, err
	}
	return perBench("fig1", "Replication ability: single vs multiple placement attempts, ICR-P-PS(S)",
		"paper: multiple attempts raise replication ability",
		(*metrics.Report).ReplAbility, placementLabels, reps, all), nil
}

// fig2 — loads with replica for the same two configurations as fig1.
func fig2(ctx context.Context, o Options) (*Result, error) {
	reps, all, err := runArms(ctx, o, placementArms(o)...)
	if err != nil {
		return nil, err
	}
	return perBench("fig2", "Loads with replica: single vs multiple placement attempts, ICR-P-PS(S)",
		"paper: negligible improvement from multiple attempts",
		(*metrics.Report).LoadsWithReplica, placementLabels, reps, all), nil
}

// fig3 — replication ability when maintaining one replica vs two replicas
// (first at N/2, second at N/4), ICR-P-PS(S).
func fig3(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	reps, all, err := runArms(ctx, o,
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, twoReplicas(sets))))
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig3",
		Title:  "Replication ability: one replica vs two replicas, ICR-P-PS(S)",
		XLabel: "benchmark",
		XTicks: workload.Names(),
		Series: []Series{
			{Label: "1 replica (N/2)", Values: values(reps[0], (*metrics.Report).ReplAbility)},
			{Label: ">=1 of 2 replicas", Values: values(reps[1], (*metrics.Report).ReplAbility)},
			{Label: "2 replicas achieved", Values: values(reps[1], (*metrics.Report).ReplDoubleAbility)},
		},
		Notes:   "paper: two replicas achievable ~12% of the time on average",
		Reports: all,
	}, nil
}

// fig4 — dL1 miss rates when maintaining one vs two replicas.
func fig4(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	reps, all, err := runArms(ctx, o,
		o.benchArm(core.BaseP(), nil),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, twoReplicas(sets))))
	if err != nil {
		return nil, err
	}
	return perBench("fig4", "dL1 miss rate: single vs two replicas, ICR-P-PS(S)",
		"paper: extra copies evict useful blocks and worsen miss rates",
		(*metrics.Report).DL1MissRate, []string{"BaseP", "1 replica", "2 replicas"}, reps, all), nil
}

// fig5 — loads with replica under vertical (distance N/2) vs horizontal
// (distance 0) replication, ICR-P-PS(S).
func fig5(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	reps, all, err := runArms(ctx, o,
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, func(c *core.ReplConfig) {
			c.Distances = core.HorizontalDistances()
		})))
	if err != nil {
		return nil, err
	}
	return perBench("fig5", "Loads with replica: vertical (N/2) vs horizontal (0) replication, ICR-P-PS(S)",
		"paper: little difference between the two placements",
		(*metrics.Report).LoadsWithReplica, []string{"vertical (N/2)", "horizontal (0)"}, reps, all), nil
}

// triggerArms are fig6/fig7's ICR runs under aggressive decay with the
// LS trigger, then the S trigger.
func triggerArms(o Options) []arm {
	sets := o.sets()
	return []arm{
		o.benchArm(icrPS(core.ReplLoadsStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
	}
}

var triggerLabels = []string{"ICR-*(LS)", "ICR-*(S)"}

// fig6 — replication ability for the LS vs S triggers.
func fig6(ctx context.Context, o Options) (*Result, error) {
	reps, all, err := runArms(ctx, o, triggerArms(o)...)
	if err != nil {
		return nil, err
	}
	return perBench("fig6", "Replication ability: ICR-*(LS) vs ICR-*(S)",
		"paper: LS replicates more data than S",
		(*metrics.Report).ReplAbility, triggerLabels, reps, all), nil
}

// fig7 — loads with replica for the LS vs S triggers.
func fig7(ctx context.Context, o Options) (*Result, error) {
	reps, all, err := runArms(ctx, o, triggerArms(o)...)
	if err != nil {
		return nil, err
	}
	return perBench("fig7", "Loads with replica: ICR-*(LS) vs ICR-*(S)",
		"paper: >65% for S, >90% for LS; near-total duplication in mcf",
		(*metrics.Report).LoadsWithReplica, triggerLabels, reps, all), nil
}

// fig8 — dL1 miss rates for the Base schemes vs ICR with LS and S triggers.
func fig8(ctx context.Context, o Options) (*Result, error) {
	arms := append([]arm{o.benchArm(core.BaseP(), nil)}, triggerArms(o)...)
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	return perBench("fig8", "dL1 miss rates: Base vs ICR-*(LS) vs ICR-*(S)",
		"paper: both triggers raise misses, LS more than S",
		(*metrics.Report).DL1MissRate, append([]string{"Base*"}, triggerLabels...), reps, all), nil
}
