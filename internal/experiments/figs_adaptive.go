package experiments

import (
	"context"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// adaptiveRepl is the replication envelope ICR-ADAPT runs start from: two
// power-2 distance attempts so the controller's top rung can actually
// place a second replica, the conservative decay window, and the dead-only
// victim policy. The controller retunes every knob except Distances at
// runtime.
func adaptiveRepl(sets int) core.ReplConfig {
	return core.ReplConfig{
		Distances:   core.Power2Distances(sets, 2),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: adapt.DefaultMaxWindow,
	}
}

// adaptiveScore is the swept reliability-cost scalar: the vulnerable
// fraction of line-cycles plus the cycle and energy overheads relative to
// the unprotected BaseP run of the same workload. Lower is better. The
// three terms are the axes the paper itself trades (§5: vulnerability,
// performance, power): BaseP scores its full vulnerability at zero
// overhead, BaseECC its full latency cost at zero vulnerability, always-on
// replication its full install-energy cost — and a phase-aware policy
// should undercut every static point by spending protection only where a
// regime rewards it.
func adaptiveScore(r *metrics.Report, base *metrics.Report, lines int) float64 {
	score := r.VulnerabilityPerLine(lines)
	if base.Cycles > 0 {
		score += float64(r.Cycles)/float64(base.Cycles) - 1
	}
	if be := base.TotalEnergy(); be > 0 {
		score += r.TotalEnergy()/be - 1
	}
	return score
}

// adaptiveConfigs returns the two shipped ICR-ADAPT controller variants.
func adaptiveConfigs() []adapt.Config {
	return []adapt.Config{
		{Predictor: adapt.PredictorDecay},
		{Predictor: adapt.PredictorEHC},
	}
}

// adaptiveShootout — driver "adaptive": every §3.2 static scheme against
// the ICR-ADAPT controllers on the phase-shifting workloads (the locality
// regime flips mid-run, so any fixed replication setting is wrong in at
// least one phase). Static ICR schemes run the §5.4 relaxed replication
// setup; adaptive runs start from the conservative rung of the same
// envelope and retune per epoch.
func adaptiveShootout(ctx context.Context, o Options) (*Result, error) {
	sets := o.sets()
	lines := sets * o.machine().DL1Assoc
	var names, labels []string
	for _, p := range workload.PhaseProfiles() {
		names = append(names, p.Name)
	}
	var arms []arm
	for _, s := range core.AllSchemes() {
		arms = append(arms, o.namedArm(names, s, relaxedIfReplicating(sets)))
		labels = append(labels, s.Name())
	}
	for _, ac := range adaptiveConfigs() {
		arms = append(arms, o.namedArm(names, icrPS(core.ReplStores), func(r *config.Run) {
			r.Repl = adaptiveRepl(sets)
			r.Adapt = ac
		}))
		labels = append(labels, ac.SchemeName())
	}
	reps, all, err := runArms(ctx, o, arms...)
	if err != nil {
		return nil, err
	}
	// BaseP is the first arm: its per-workload runs anchor the overhead
	// term of every score.
	res := &Result{
		ID:      "adaptive",
		Title:   "Adaptive vs static replication on phase-shifting workloads",
		XLabel:  "workload",
		XTicks:  names,
		Notes:   "score = vulnerable line-cycle fraction + cycle overhead + energy overhead vs BaseP; lower is better",
		Reports: all,
	}
	for i, l := range labels {
		vals := make([]float64, len(names))
		for j, r := range reps[i] {
			vals[j] = adaptiveScore(r, reps[0][j], lines)
		}
		res.Series = append(res.Series, Series{Label: l, Values: vals})
	}
	return res, nil
}
