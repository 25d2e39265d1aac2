package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// rCache — ICR vs the Kim & Somani separate duplication cache (the
// paper's reference [11], its §1/§5.2 comparison point): duplicate
// coverage of loads, unrecoverable loads under injection, and total
// energy, for ICR-P-PS(S) against BaseP plus a 2KB r-cache.
func rCache(ctx context.Context, o Options) (*Result, error) {
	relaxed := relaxedIfReplicating(o.sets())
	injected := func(dupKB int) func(*config.Run) {
		return func(r *config.Run) {
			relaxed(r)
			r.DupCacheKB = dupKB
			r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
		}
	}
	reps, all, err := runArms(ctx, o,
		o.benchArm(icrPS(core.ReplStores), injected(0)),
		o.benchArm(core.BaseP(), injected(2)))
	if err != nil {
		return nil, err
	}
	icr, dup := reps[0], reps[1]
	return &Result{
		ID:     "rcache",
		Title:  "ICR-P-PS(S) vs BaseP + 2KB duplication cache (Kim & Somani [11])",
		XLabel: "benchmark",
		XTicks: workload.Names(),
		Series: []Series{
			{Label: "ICR loads covered", Values: values(icr, (*metrics.Report).LoadsWithReplica)},
			{Label: "r-cache loads covered", Values: values(dup, (*metrics.Report).LoadsWithDuplicate)},
			{Label: "ICR unrecov frac", Values: values(icr, (*metrics.Report).UnrecoverableFrac)},
			{Label: "r-cache unrecov frac", Values: values(dup, (*metrics.Report).UnrecoverableFrac)},
			{Label: "energy rc/ICR", Values: ratios(dup, icr, (*metrics.Report).TotalEnergy)},
		},
		Notes:   "paper: ICR duplicates hot data without a separate array probed on every load",
		Reports: all,
	}, nil
}

// scrub — unrecoverable loads vs scrub interval for BaseP and
// ICR-P-PS(S) under random injection (composing the paper's scheme with
// Saleh-style scrubbing, reference [21]).
func scrub(ctx context.Context, o Options) (*Result, error) {
	intervals := []uint64{0, 10000, 1000, 100}
	res := &Result{
		ID:     "scrub",
		Sweep:  true,
		Title:  "Unrecoverable loads vs scrub interval (vortex, P=1e-3, random model)",
		XLabel: "scrub interval",
		XTicks: []string{"off"},
		Notes:  "0 = no scrubbing; faster sweeps catch errors before demand loads do",
	}
	for _, iv := range intervals[1:] {
		res.XTicks = append(res.XTicks, fmt.Sprintf("%d", iv))
	}
	return lossSweep(ctx, o, res, []core.Scheme{core.BaseP(), icrPS(core.ReplStores)}, len(intervals), func(r *config.Run, i int) {
		r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
		r.ScrubInterval = intervals[i]
		r.ScrubLines = 4
	})
}

// mttf — projects the measured vulnerability fractions to real-world
// failure rates (internal/reliability): estimated unrecoverable-loss FIT
// for the dL1 at a 2003-class raw soft-error rate (1000 FIT/Mbit). This is
// the analytic complement to Fig 14's injection campaign: the paper notes
// realistic rates are unmeasurable by injection (§5.5), but the exposure
// argument still quantifies them.
func mttf(ctx context.Context, o Options) (*Result, error) {
	vuln, err := vulnerability(ctx, o)
	if err != nil {
		return nil, err
	}
	m := o.machine()
	params := reliability.DefaultParams()
	result := &Result{
		ID:     "mttf",
		Title:  "Estimated dL1 loss rate (FIT) at 1000 FIT/Mbit, from measured vulnerability",
		XLabel: "benchmark",
		XTicks: vuln.XTicks,
		Notes:  "analytic projection of the vulnerability experiment; BaseECC is 0 by construction",
	}
	for _, s := range vuln.Series {
		vals := make([]float64, len(s.Values))
		for i, v := range s.Values {
			est, err := reliability.Project(s.Label, v, m.DL1Size, params)
			if err != nil {
				return nil, err
			}
			vals[i] = est.LossFIT
		}
		result.Series = append(result.Series, Series{Label: s.Label + " FIT", Values: vals})
	}
	result.Reports = vuln.Reports
	return result, nil
}

// vulnerability — injection-free architectural vulnerability: the average
// fraction of time a dL1 line spends holding dirty data whose only
// protection is parity, per scheme. This is the quantity ICR exists to
// shrink without paying ECC's latency.
func vulnerability(ctx context.Context, o Options) (*Result, error) {
	lines := o.sets() * o.machine().DL1Assoc
	schemes := []core.Scheme{
		core.BaseP(),
		icrPS(core.ReplStores),
		icrPS(core.ReplLoadsStores),
		core.BaseECC(false),
	}
	arms := make([]arm, len(schemes))
	for i, s := range schemes {
		arms[i] = o.benchArm(s, relaxedIfReplicating(o.sets()))
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      "vulnerability",
		Title:   "Dirty-and-parity-only line residency (fraction of line-cycles)",
		XLabel:  "benchmark",
		XTicks:  workload.Names(),
		Notes:   "lower is safer; BaseECC is 0 by construction, ICR approaches it at parity cost",
		Reports: all,
	}
	for i, s := range schemes {
		res.Series = append(res.Series, Series{Label: s.Name(), Values: values(reps[i], func(r *metrics.Report) float64 {
			return r.VulnerabilityPerLine(lines)
		})})
	}
	return res, nil
}
