package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// softwareHints — the paper's §6 future work, implemented and evaluated:
// software exempts the streaming/pointer-chase regions (no reuse worth
// protecting, and their one-touch blocks pollute replica sites) from
// replication. Compares blanket ICR-P-PS(S) against the hinted variant.
func softwareHints(ctx context.Context, o Options) (*Result, error) {
	relaxed := relaxedIfReplicating(o.sets())
	exempt := func(r *config.Run) {
		relaxed(r)
		profile, err := workload.ByName(r.Benchmark)
		if err != nil {
			return // unreachable for registry benchmarks
		}
		var ranges []core.AddrRange
		for _, rr := range workload.Layout(profile) {
			if rr.Kind == workload.Stream || rr.Kind == workload.Strided || rr.Kind == workload.Chase {
				ranges = append(ranges, core.AddrRange{
					Start: rr.Start, End: rr.End,
					Hint: core.Hint{Replicate: false},
				})
			}
		}
		r.Hints = ranges
	}
	reps, all, err := runArms(ctx, o, o.benchArm(icrPS(core.ReplStores), relaxed), o.benchArm(icrPS(core.ReplStores), exempt))
	if err != nil {
		return nil, err
	}
	blanket, hinted := reps[0], reps[1]
	miss, lwr := (*metrics.Report).DL1MissRate, (*metrics.Report).LoadsWithReplica
	return &Result{
		ID:     "swhints",
		Title:  "Software-directed replication: exempting streaming/chase data",
		XLabel: "benchmark",
		XTicks: workload.Names(),
		Series: []Series{
			{Label: "blanket miss", Values: values(blanket, miss)},
			{Label: "hinted miss", Values: values(hinted, miss)},
			{Label: "blanket lwr", Values: values(blanket, lwr)},
			{Label: "hinted lwr", Values: values(hinted, lwr)},
		},
		Notes:   "§6 future work: hints should trim miss-rate overhead while keeping hot-data coverage",
		Reports: all,
	}, nil
}
