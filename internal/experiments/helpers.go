package experiments

import (
	"context"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// icrPS returns the workhorse ICR-P-PS scheme with the given trigger.
func icrPS(trigger core.ReplTrigger) core.Scheme {
	return core.ICR(core.ParityProt, core.LookupSerial, trigger)
}

// aggressiveRepl is the §5.1-5.2 replication setup: decay window 0 (a block
// is dead as soon as its access completes) with the dead-only victim
// policy and a single vertical (distance N/2) attempt.
func aggressiveRepl(sets int) core.ReplConfig {
	return core.ReplConfig{
		Distances:   core.VerticalDistances(sets),
		Replicas:    1,
		Victim:      core.DeadOnly,
		DecayWindow: 0,
	}
}

// relaxedRepl is the §5.4+ setup: 1000-cycle decay window with the
// dead-first victim policy.
func relaxedRepl(sets int) core.ReplConfig {
	return core.ReplConfig{
		Distances:   core.VerticalDistances(sets),
		Replicas:    1,
		Victim:      core.DeadFirst,
		DecayWindow: 1000,
	}
}

// relaxedIfReplicating is the mutation most multi-scheme arms share: runs
// of a replicating scheme get the relaxed setup, the others none.
func relaxedIfReplicating(sets int) func(*config.Run) {
	return func(r *config.Run) {
		if r.Scheme.HasReplication() {
			r.Repl = relaxedRepl(sets)
		}
	}
}

// sets returns the dL1 set count of the experiment's machine.
func (o *Options) sets() int {
	m := o.machine()
	return m.DL1Sets()
}

// An arm is one configuration of a figure's grid, fully built: every run
// has Options.apply and the arm's mutation applied before submission, so
// no driver code executes on a worker goroutine.
type arm struct {
	m    config.Machine
	runs []config.Run
}

// benchArm runs scheme once per benchmark, in workload.Names() order.
func (o *Options) benchArm(scheme core.Scheme, mutate func(*config.Run)) arm {
	return o.namedArm(workload.Names(), scheme, mutate)
}

// namedArm runs scheme once per named workload, in the order given.
func (o *Options) namedArm(names []string, scheme core.Scheme, mutate func(*config.Run)) arm {
	return o.sweepArm("", scheme, len(names), func(r *config.Run, i int) {
		r.Benchmark = names[i]
		if mutate != nil {
			mutate(r)
		}
	})
}

// sweepArm runs bench under scheme once per point of an n-point sweep;
// point sets run i's swept parameters.
func (o *Options) sweepArm(bench string, scheme core.Scheme, n int, point func(r *config.Run, i int)) arm {
	a := arm{m: o.machine(), runs: make([]config.Run, n)}
	for i := range a.runs {
		r := &a.runs[i]
		*r = config.NewRun(bench, scheme)
		o.apply(r)
		point(r, i)
	}
	return a
}

// runArms submits every run of every arm before it waits on any, so the
// whole grid shares the worker pool. It returns each arm's reports, and
// all of them in arm order: the order of Result.Reports.
func runArms(ctx context.Context, o Options, arms ...arm) ([][]*metrics.Report, []*metrics.Report, error) {
	var pendings []*runner.Pending
	for _, a := range arms {
		for _, r := range a.runs {
			pendings = append(pendings, o.runner().Submit(ctx, a.m, r))
		}
	}
	all, err := runner.Collect(pendings)
	if err != nil {
		return nil, nil, err
	}
	per := make([][]*metrics.Report, len(arms))
	rest := all
	for i, a := range arms {
		n := len(a.runs)
		per[i], rest = rest[:n:n], rest[n:]
	}
	return per, all, nil
}

// values extracts one metric per report.
func values(reports []*metrics.Report, f func(*metrics.Report) float64) []float64 {
	out := make([]float64, len(reports))
	for i, r := range reports {
		out[i] = f(r)
	}
	return out
}

// ratios divides each report's metric by the matching baseline report's.
func ratios(reports, base []*metrics.Report, f func(*metrics.Report) float64) []float64 {
	out := make([]float64, len(reports))
	for i := range reports {
		b := f(base[i])
		if b != 0 {
			out[i] = f(reports[i]) / b
		}
	}
	return out
}

// benchTicks returns the benchmark names plus a trailing geometric-mean
// column label.
func benchTicks() []string {
	return append(workload.Names(), "geomean")
}

// withGeoMean appends the geometric mean to a per-benchmark value slice.
func withGeoMean(vals []float64) []float64 {
	return append(vals, sim.GeoMean(vals))
}

func cycles(r *metrics.Report) float64 { return float64(r.Cycles) }
