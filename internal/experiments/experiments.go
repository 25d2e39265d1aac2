// Package experiments contains one driver per table/figure of the paper's
// evaluation (§5). Each driver sweeps the relevant parameters, runs the
// full simulator, and returns the same rows/series the paper plots, so the
// whole evaluation can be regenerated with `icrbench`, served by `icrd`,
// or replayed by the benchmark harness.
//
// The entire surface is one uniform entry point:
//
//	res, err := experiments.Run(ctx, "fig14", experiments.Options{...})
//
// dispatched through an ordered registry (IDs lists the valid ids).
// Cancellation flows through the ctx argument — Options carries only
// simulation parameters — so every caller (CLI flag, HTTP deadline,
// SIGTERM drain) propagates deadlines the same way.
//
// Every driver builds its figure's grid the same way. An arm is one
// configuration of the grid (a scheme, a replication setup, a fault or
// energy knob) as fully built runs: one per benchmark (benchArm) or one
// per point of a sweep (sweepArm). runArms submits every run of every arm
// before it waits on any, so the whole grid shares the worker pool, and
// hands back each arm's reports plus all of them in arm order, which is
// the order of Result.Reports. A driver then only turns reports into
// series.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/viz"
)

// Options control an experiment run.
type Options struct {
	// Instructions per simulation (0 = config.DefaultInstructions).
	Instructions uint64
	// Seed for workload generation.
	Seed int64
	// Machine overrides the Table 1 machine when non-nil.
	Machine *config.Machine
	// Sample, when enabled, switches every simulation the drivers issue
	// to SMARTS-style sampled mode (config.SampleConfig); counters stay
	// exact, timing is extrapolated from the measured windows.
	Sample config.SampleConfig
	// Runner executes the simulations. Nil uses a process-wide shared
	// runner with GOMAXPROCS workers and memoization, so independent
	// sweep points run concurrently and repeated ones simulate once.
	Runner *runner.Runner
}

// defaultRunner is the process-wide engine used when Options.Runner is
// nil: every driver fans out across GOMAXPROCS workers and shares one
// memo cache, so baselines reused between figures simulate once.
var defaultRunner = runner.New(runner.Options{})

func (o *Options) runner() *runner.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return defaultRunner
}

func (o *Options) machine() config.Machine {
	if o.Machine != nil {
		return *o.Machine
	}
	return config.Default()
}

func (o *Options) apply(r *config.Run) {
	if o.Instructions > 0 {
		r.Instructions = o.Instructions
	}
	if o.Seed != 0 {
		r.Seed = o.Seed
	}
	if o.Sample.Enabled() {
		r.Sample = o.Sample
	}
}

// Series is one plotted line/bar group: a label and one value per x-point.
type Series struct {
	Label  string
	Values []float64
}

// Result is a regenerated table/figure.
type Result struct {
	ID      string
	Title   string
	XLabel  string
	XTicks  []string
	Series  []Series
	Notes   string
	Sweep   bool              // true when the x axis is a parameter sweep (rendered as lines)
	Reports []*metrics.Report // raw per-run data, in execution order
}

// Table renders the result as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if r.Notes != "" {
		fmt.Fprintf(&b, "  (%s)\n", r.Notes)
	}
	w := 12
	for _, s := range r.Series {
		if len(s.Label) > w {
			w = len(s.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", w+2, r.XLabel)
	for _, x := range r.XTicks {
		fmt.Fprintf(&b, "%10s", x)
	}
	b.WriteByte('\n')
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-*s", w+2, s.Label)
		for _, v := range s.Values {
			fmt.Fprintf(&b, "%10.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the result as comma-separated rows (header: xlabel + ticks).
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString(r.XLabel)
	for _, x := range r.XTicks {
		b.WriteByte(',')
		b.WriteString(x)
	}
	b.WriteByte('\n')
	for _, s := range r.Series {
		b.WriteString(s.Label)
		for _, v := range s.Values {
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(v, 'g', 8, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Chart renders the result as grouped horizontal ASCII bars, one group
// per x-tick, scaled to the largest value in the result.
func (r *Result) Chart() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	maxVal := 0.0
	labelW := 0
	for _, s := range r.Series {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}
	const barW = 40
	for xi, tick := range r.XTicks {
		fmt.Fprintf(&b, "%s\n", tick)
		for _, s := range r.Series {
			if xi >= len(s.Values) {
				continue
			}
			v := s.Values[xi]
			n := int(v / maxVal * barW)
			if n < 0 {
				n = 0
			}
			fmt.Fprintf(&b, "  %-*s |%s %.4f\n", labelW, s.Label, strings.Repeat("#", n), v)
		}
	}
	return b.String()
}

// SVG renders the result as a standalone figure: grouped bars for
// per-benchmark results, lines for parameter sweeps.
func (r *Result) SVG() (string, error) {
	spec := viz.Spec{
		Title:  fmt.Sprintf("%s — %s", r.ID, r.Title),
		XLabel: r.XLabel,
		XTicks: r.XTicks,
	}
	for _, s := range r.Series {
		spec.Series = append(spec.Series, viz.Series{Label: s.Label, Values: s.Values})
	}
	if r.Sweep {
		return viz.LineSVG(spec)
	}
	return viz.GroupedBarSVG(spec)
}

// driver is an experiment implementation. Drivers are unexported: the
// only way in is Run, so every caller shares one calling convention and
// one registry.
type driver func(ctx context.Context, o Options) (*Result, error)

// Run executes the experiment registered under id. A nil ctx means
// context.Background(); cancelling ctx aborts in-flight simulations and
// returns promptly.
func Run(ctx context.Context, id string, o Options) (*Result, error) {
	d, err := byID(id)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background() //icrvet:ignore ctxflow nil-ctx compatibility seam: Run's documented default for non-cancellable callers
	}
	return d(ctx, o)
}

// MultiSeed runs an experiment once per seed and returns a Result whose
// series values are the element-wise means — the cheap way to damp
// workload-generation noise. The per-run raw reports are concatenated.
// A seed list holding 0 or a repeat is rejected before anything runs
// (config.ValidateSeeds).
func MultiSeed(ctx context.Context, id string, opts Options, seeds []int64) (*Result, error) {
	d, err := byID(id)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background() //icrvet:ignore ctxflow nil-ctx compatibility seam: MultiSeed's documented default for non-cancellable callers
	}
	return multiSeed(ctx, d, opts, seeds)
}

func multiSeed(ctx context.Context, d driver, opts Options, seeds []int64) (*Result, error) {
	if err := config.ValidateSeeds(seeds); err != nil {
		return nil, err
	}
	if len(seeds) == 0 {
		return d(ctx, opts)
	}
	var agg *Result
	for i, seed := range seeds {
		o := opts
		o.Seed = seed
		res, err := d(ctx, o)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if i == 0 {
			agg = res
			continue
		}
		if len(res.Series) != len(agg.Series) {
			return nil, fmt.Errorf("seed %d: series shape changed", seed)
		}
		for si := range res.Series {
			if len(res.Series[si].Values) != len(agg.Series[si].Values) {
				return nil, fmt.Errorf("seed %d: value shape changed", seed)
			}
			for vi, v := range res.Series[si].Values {
				agg.Series[si].Values[vi] += v
			}
		}
		agg.Reports = append(agg.Reports, res.Reports...)
	}
	n := float64(len(seeds))
	for si := range agg.Series {
		for vi := range agg.Series[si].Values {
			agg.Series[si].Values[vi] /= n
		}
	}
	agg.Notes = fmt.Sprintf("%s [mean of %d seeds]", agg.Notes, len(seeds))
	return agg, nil
}

// registration binds an experiment id to its driver. The registry is an
// ordered slice, not a map: ids must never be enumerated in map-iteration
// order, or `icrbench -fig all` output would shuffle run to run.
type registration struct {
	ID  string
	Run driver
}

// registry lists every experiment. Order here is the registration order;
// IDs sorts, so appending new experiments anywhere is fine.
var registry = []registration{
	{"fig1", fig1},
	{"fig2", fig2},
	{"fig3", fig3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"fig12", fig12},
	{"fig13", fig13},
	{"fig14", fig14},
	{"fig15", fig15},
	{"fig16", fig16},
	{"fig17", fig17},
	{"faultmodels", faultModels},
	{"sensitivity", sensitivity},
	{"victims", victimPolicies},
	{"swhints", softwareHints},
	{"rcache", rCache},
	{"scrub", scrub},
	{"vulnerability", vulnerability},
	{"mttf", mttf},
	{"decaypred", decayPredictors},
	{"prefetch", prefetch},
	{"adaptive", adaptiveShootout},
	{"twotier", twoTierShootout},
}

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return out
}

// Valid reports whether id names a registered experiment — the cheap
// pre-flight check for CLIs and the HTTP service, which want to reject a
// bad id before spending simulation time.
func Valid(id string) bool {
	_, err := byID(id)
	return err == nil
}

// byID resolves an experiment by id ("fig1" ... "fig17", "sensitivity").
func byID(id string) (driver, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Run, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
		id, strings.Join(IDs(), ", "))
}
