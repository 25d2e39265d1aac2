package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// fig9 — normalized execution cycles for all ten schemes under aggressive
// (window 0, dead-only) dead-block prediction. Every bar is normalized to
// BaseP per benchmark; a geometric-mean column is appended.
func fig9(ctx context.Context, o Options) (*Result, error) {
	return normalizedCycles(ctx, o, "fig9",
		"Normalized execution cycles, all schemes (aggressive dead-block prediction)",
		"paper: BaseECC ~+30%, ICR-P-PS(S) +3.6%, ICR-ECC-PS(S) +21%, ICR-*-PP ~ BaseECC",
		aggressiveRepl, false)
}

// fig12 — normalized execution cycles with the relaxed (1000-cycle window,
// dead-first) prediction.
func fig12(ctx context.Context, o Options) (*Result, error) {
	return normalizedCycles(ctx, o, "fig12",
		"Normalized execution cycles, 1000-cycle decay window (dead-first)",
		"paper: BaseECC +30.9%, ICR-P-PS(S) +2.4%, ICR-ECC-PS(S) +10.2%",
		relaxedRepl, false)
}

// fig15 — normalized execution cycles when replicas are left in the cache
// on primary eviction and may serve later misses (§5.6 performance mode).
func fig15(ctx context.Context, o Options) (*Result, error) {
	return normalizedCycles(ctx, o, "fig15",
		"Normalized execution cycles with replicas left on primary eviction",
		"paper: ICR-*-PS(S) match or beat BaseP (up to 24% better on mcf/vpr)",
		relaxedRepl, true)
}

// recommended are §5's two recommended schemes, ICR-P-PS(S) and
// ICR-ECC-PS(S).
func recommended() []core.Scheme {
	return []core.Scheme{
		core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores),
		core.ICR(core.ECCProt, core.LookupSerial, core.ReplStores),
	}
}

// normalizedCycles is the shared driver for Figures 9, 12, and 15.
func normalizedCycles(ctx context.Context, o Options, id, title, notes string, repl func(int) core.ReplConfig, leave bool) (*Result, error) {
	sets := o.sets()
	schemes := []core.Scheme{core.BaseECC(false)}
	if id == "fig15" {
		// §5.6 focuses on the two recommended schemes vs the bases.
		schemes = append(schemes, recommended()...)
	} else {
		schemes = append(schemes, core.AllSchemes()[2:]...)
	}
	arms := []arm{o.benchArm(core.BaseP(), nil)}
	for _, s := range schemes {
		arms = append(arms, o.benchArm(s, func(r *config.Run) {
			if s.HasReplication() {
				r.Repl = repl(sets)
				r.Repl.LeaveReplicas = leave
			}
		}))
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: id, Title: title, XLabel: "benchmark", XTicks: benchTicks(), Notes: notes, Reports: all}
	for i, s := range append([]core.Scheme{core.BaseP()}, schemes...) {
		res.Series = append(res.Series, Series{Label: s.Name(), Values: withGeoMean(ratios(reps[i], reps[0], cycles))})
	}
	return res, nil
}

// decayWindows is the §5.3 sweep.
var decayWindows = []uint64{0, 500, 1000, 5000, 10000}

// windowTicks labels the decay-window sweep's points.
func windowTicks() []string {
	ticks := make([]string, len(decayWindows))
	for i, w := range decayWindows {
		ticks[i] = fmt.Sprintf("%d", w)
	}
	return ticks
}

// windowArm runs vpr under scheme with aggressive decay at every window of
// the §5.3 sweep.
func windowArm(o Options, scheme core.Scheme) arm {
	sets := o.sets()
	return o.sweepArm("vpr", scheme, len(decayWindows), func(r *config.Run, i int) {
		r.Repl = aggressiveRepl(sets)
		r.Repl.DecayWindow = decayWindows[i]
	})
}

// fig10 — replication ability and loads-with-replica vs decay window for
// vpr, ICR-P-PS(S).
func fig10(ctx context.Context, o Options) (*Result, error) {
	_, all, err := runArms(ctx, o, windowArm(o, icrPS(core.ReplStores)))
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig10",
		Sweep:  true,
		Title:  "Replication ability and loads-with-replica vs decay window (vpr, ICR-P-PS(S))",
		XLabel: "window (cycles)",
		XTicks: windowTicks(),
		Series: []Series{
			{Label: "replication ability", Values: values(all, (*metrics.Report).ReplAbility)},
			{Label: "loads with replica", Values: values(all, (*metrics.Report).LoadsWithReplica)},
		},
		Notes:   "paper: ability falls with window size, loads-with-replica barely moves",
		Reports: all,
	}, nil
}

// fig11 — normalized execution cycles vs decay window for vpr,
// ICR-P-PS(S) and ICR-ECC-PS(S), normalized to BaseP.
func fig11(ctx context.Context, o Options) (*Result, error) {
	schemes := recommended()
	arms := []arm{o.namedArm([]string{"vpr"}, core.BaseP(), nil)}
	for _, s := range schemes {
		arms = append(arms, windowArm(o, s))
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	base := reps[0][0]
	res := &Result{
		ID:      "fig11",
		Sweep:   true,
		Title:   "Normalized execution cycles vs decay window (vpr)",
		XLabel:  "window (cycles)",
		XTicks:  windowTicks(),
		Notes:   "paper: ICR-P-PS(S) <4% over BaseP at window 1000, ~1.7% at 10000",
		Reports: all,
	}
	for i, s := range schemes {
		res.Series = append(res.Series, Series{Label: s.Name(), Values: values(reps[i+1], func(r *metrics.Report) float64 {
			return float64(r.Cycles) / float64(base.Cycles)
		})})
	}
	return res, nil
}

// fig13 — replication ability and loads-with-replica at decay windows 1000
// and 0 across all benchmarks, ICR-P-PS(S).
func fig13(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	window := func(w uint64) arm {
		return o.benchArm(icrPS(core.ReplStores), func(r *config.Run) {
			r.Repl = relaxedRepl(sets)
			r.Repl.DecayWindow = w
		})
	}
	reps, all, err := runArms(ctx, o, window(0), window(1000))
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:     "fig13",
		Title:  "Replication ability / loads-with-replica at decay windows 0 and 1000",
		XLabel: "benchmark",
		XTicks: workload.Names(),
		Series: []Series{
			{Label: "ability w=0", Values: values(reps[0], (*metrics.Report).ReplAbility)},
			{Label: "ability w=1000", Values: values(reps[1], (*metrics.Report).ReplAbility)},
			{Label: "loads w/repl w=0", Values: values(reps[0], (*metrics.Report).LoadsWithReplica)},
			{Label: "loads w/repl w=1000", Values: values(reps[1], (*metrics.Report).LoadsWithReplica)},
		},
		Notes:   "paper: loads-with-replica is insensitive to the window",
		Reports: all,
	}, nil
}
