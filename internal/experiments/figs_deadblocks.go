package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// decayPredictors — ablation of the dead-block prediction mechanism: the
// paper's fixed-window decay counters (ref [10]) at two windows vs the
// timekeeping-style adaptive predictor (ref [7]), under ICR-P-PS(S).
func decayPredictors(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	reps, all, err := runArms(ctx, o,
		o.benchArm(icrPS(core.ReplStores), aggressive(sets, nil)),
		o.benchArm(icrPS(core.ReplStores), relaxedIfReplicating(sets)),
		o.benchArm(icrPS(core.ReplStores), func(r *config.Run) {
			r.Repl = relaxedRepl(sets)
			r.Repl.Decay = core.Adaptive
		}))
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:      "decaypred",
		Title:   "Dead-block predictor ablation: fixed decay windows vs adaptive timekeeping",
		XLabel:  "benchmark",
		XTicks:  workload.Names(),
		Series:  lwrAndMiss([]string{"window 0", "window 1000", "adaptive"}, reps),
		Notes:   "adaptive needs no window parameter; compare coverage and miss cost",
		Reports: all,
	}, nil
}

// prefetch — the other use of dead lines (refs [14], [7]): next-block
// prefetching into dead ways, alone and composed with ICR. Dead real
// estate can buy performance (prefetch) or reliability (replicas); this
// table shows both sides and the combination.
func prefetch(ctx context.Context, o Options) (*Result, error) {
	relaxed := relaxedIfReplicating(o.sets())
	variant := func(s core.Scheme, prefetch bool) arm {
		return o.benchArm(s, func(r *config.Run) {
			relaxed(r)
			r.Prefetch = prefetch
		})
	}
	reps, all, err := runArms(ctx, o,
		variant(core.BaseP(), false), variant(core.BaseP(), true),
		variant(icrPS(core.ReplStores), false), variant(icrPS(core.ReplStores), true))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "prefetch",
		Title:   "Dead-line real estate: prefetch vs replicate vs both (normalized cycles)",
		XLabel:  "benchmark",
		XTicks:  benchTicks(),
		Notes:   "prefetch buys performance from dead lines; replication buys reliability; they compose",
		Reports: all,
	}
	for i, l := range []string{"BaseP", "BaseP+prefetch", "ICR-P-PS(S)", "ICR+prefetch"} {
		res.Series = append(res.Series, Series{Label: l, Values: withGeoMean(ratios(reps[i], reps[0], cycles))})
	}
	return res, nil
}
