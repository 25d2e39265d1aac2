package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Memory-tier per-access energies for the two-tier sweep (nJ, DRAM
// interface class for the paper's 0.18um generation). The defaults are
// zero — the paper's energy study stops at the L2 — so only this driver
// prices the traffic that escapes the protected hierarchy.
const (
	twoTierMemRead  = 18.0
	twoTierMemWrite = 19.5
)

// twoTierPoints returns the swept tier configurations, least to most
// protected: an unprotected timing L2, parity detection, SEC-DED ECC,
// in-tier ICR replication over parity, and ICR with cross-tier replica
// placement against the L1.
func twoTierPoints() []config.TwoTier {
	fc := config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 11}
	return []config.TwoTier{
		{},
		{Protect: core.ParityProt, Fault: fc},
		{Protect: core.ECCProt, Fault: fc},
		{Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000, Fault: fc},
		{Protect: core.ParityProt, Replicate: true, Victim: core.DeadFirst, DecayWindow: 1000, CrossTier: true, Fault: fc},
	}
}

// twoTierScore folds the three axes the sweep trades into one scalar,
// lower is better: the L1 vulnerability and cycle/energy overheads of
// adaptiveScore, plus the tier hazard — the fraction of detected tier
// errors the configuration failed to recover (unrecoverable-dirty loads
// plus silently corrupt write-backs over injected errors). An unprotected
// tier detects nothing at all, so its hazard is 1 by definition.
func twoTierScore(r *metrics.Report, base *metrics.Report, lines int) float64 {
	score := adaptiveScore(r, base, lines)
	hazard := 1.0
	if tt := r.TwoTier; tt != nil && tt.Tier != "off" {
		hazard = 0
		if tt.ErrorsInjected > 0 {
			hazard = float64(tt.UnrecoverableDirty+tt.SilentWritebacks) / float64(tt.ErrorsInjected)
		}
	}
	return score + hazard
}

// twoTierShootout — driver "twotier": per-tier protection choices (none,
// parity, ECC, in-tier ICR, ICR with cross-tier placement) against three
// L1 schemes, with transient errors injected at both tiers and the
// memory-tier traffic priced. Each cell is the geometric mean across the
// benchmarks of the combined reliability + performance + energy score,
// anchored to the (BaseP, unprotected-tier) run of the same workload.
func twoTierShootout(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	lines := sets * o.machine().DL1Assoc
	points := twoTierPoints()
	l1Fault := config.FaultConfig{Model: fault.Random, Prob: 1e-3, Seed: 7}
	l1Schemes := []core.Scheme{core.BaseP(), core.BaseECC(false), icrPS(core.ReplStores)}
	relaxed := relaxedIfReplicating(sets)

	// One arm per (L1 scheme, tier point), scheme-major; each arm runs
	// every benchmark.
	var arms []arm
	for _, scheme := range l1Schemes {
		for _, tt := range points {
			arms = append(arms, o.benchArm(scheme, func(r *config.Run) {
				relaxed(r)
				r.Fault = l1Fault
				r.TwoTier = tt
				r.Energy = r.Energy.WithMemoryCosts(twoTierMemRead, twoTierMemWrite)
			}))
		}
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}

	// The anchor is the first arm: BaseP over the unprotected tier, same
	// workload and injection, memory traffic priced the same way.
	res := &Result{
		ID:     "twotier",
		Title:  "Per-tier protection: L1 scheme x L2/remote tier scheme",
		XLabel: "tier protection",
		Notes: "geomean across benchmarks of (vulnerable line-cycle fraction + cycle overhead + " +
			"energy overhead + unrecovered tier-error fraction) vs BaseP over an unprotected tier; lower is better",
		Reports: all,
	}
	for _, tt := range points {
		res.XTicks = append(res.XTicks, tt.Name())
	}
	for si, scheme := range l1Schemes {
		vals := make([]float64, len(points))
		for pi := range points {
			scores := make([]float64, len(reps[0]))
			for j, r := range reps[si*len(points)+pi] {
				scores[j] = twoTierScore(r, reps[0][j], lines)
			}
			vals[pi] = sim.GeoMean(scores)
		}
		res.Series = append(res.Series, Series{Label: scheme.Name(), Values: vals})
	}
	return res, nil
}
