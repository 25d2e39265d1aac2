package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// sweepIDs are the figure drivers one cold sweep runs concurrently through
// one fresh runner. fig9 and fig12 share their BaseP and BaseECC runs, so
// the sweep also exercises in-sweep memo dedup.
var sweepIDs = []string{"fig9", "fig12", "fig14", "adaptive"}

const (
	sweepBudget = 50_000
	sweepWarmup = 5_000 // set-up budget: fills the instance pool for every shape
)

type sweepWorkload struct {
	variant int
	workers int
	rec     *recorder
}

func newSweepWorkload(v int, rec *recorder) *sweepWorkload {
	return &sweepWorkload{variant: v, workers: runtime.NumCPU(), rec: rec}
}

// sweepResult is one cold sweep: every driver's result and the runner's
// counters.
type sweepResult struct {
	results map[string]*experiments.Result
	snap    metrics.ProgressSnapshot
	wall    time.Duration
}

// sweep runs every driver at the given budget through a fresh runner.
func (w *sweepWorkload) sweep(budget uint64) (*sweepResult, error) {
	prog := metrics.NewProgress()
	var cache runner.Cache = runner.NewMemoryCache(0, prog)
	if w.rec.traced {
		cache = tracedCache{inner: cache, rec: w.rec}
	}
	rn := runner.New(runner.Options{
		Workers:  w.workers,
		Cache:    cache,
		Progress: prog,
		Simulate: w.rec.simulate,
	})
	opts := experiments.Options{Instructions: budget, Seed: int64(w.variant + 1), Runner: rn}
	res := &sweepResult{results: map[string]*experiments.Result{}}
	errs := make([]error, len(sweepIDs))
	results := make([]*experiments.Result, len(sweepIDs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, id := range sweepIDs {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			results[i], errs[i] = experiments.Run(context.Background(), id, opts)
		}(i, id)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.snap = rn.Progress().Snapshot()
	for i, id := range sweepIDs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", id, errs[i])
		}
		res.results[id] = results[i]
	}
	return res, nil
}

func (w *sweepWorkload) setup() error {
	_, err := w.sweep(sweepWarmup)
	w.rec.reset()
	return err
}

// sweepDigests are the stored-data keys and digests of one sweep: each
// driver's CSV and the digests of its raw reports in order.
func sweepDigests(v int, res *sweepResult) map[string]string {
	out := map[string]string{}
	for id, r := range res.results {
		out[fmt.Sprintf("sweep-cold/%d/%s.csv", v, id)] = digest(r.CSV())
		ds := make([]string, len(r.Reports))
		for i, rep := range r.Reports {
			ds[i] = digest(rep)
		}
		out[fmt.Sprintf("sweep-cold/%d/%s.reports", v, id)] = digest(strings.Join(ds, ","))
	}
	return out
}

func (w *sweepWorkload) run(d time.Duration) (*outcome, error) {
	out := &outcome{workers: w.workers, layer: map[string]float64{}}
	distinct := ref.Distinct[fmt.Sprint(w.variant)]
	var submitted, simulated float64
	var walls []float64 // calibrated ms
	start := time.Now()
	for time.Since(start) < d || out.attempted == 0 {
		// The sweep runs on every worker, so the kernel does too.
		var res *sweepResult
		var err error
		cal := w.rec.bracket(w.workers, func() { res, err = w.sweep(sweepBudget) })
		out.attempted++
		if err != nil {
			out.fail("sweep: %v", err)
			continue
		}
		out.ops = append(out.ops, ms(res.wall))
		out.wall += res.wall.Seconds()
		walls = append(walls, calibrated(ms(res.wall), cal))
		for key, got := range sweepDigests(w.variant, res) {
			if want := ref.Digests[key]; got != want {
				out.fail("%s: digest %s, want %s", key, got, want)
			}
		}
		// A cold sweep executes exactly its distinct configurations; fewer
		// means results were carried over from an earlier sweep.
		if res.snap.Completed != uint64(distinct) || res.snap.Failed != 0 {
			out.fail("sweep executed %d simulations (%d failed), want %d distinct", res.snap.Completed, res.snap.Failed, distinct)
		}
		submitted += float64(res.snap.Submitted)
		simulated += float64(res.snap.Completed)
	}
	_, sims := w.rec.snapshot()
	_, cost := runCosts(sims)
	out.opMS, out.missMS = median(walls), median(cost)
	n := float64(len(out.ops))
	out.layer["runner.submitted"] = ratio(submitted, n)
	out.layer["runner.simulated"] = ratio(simulated, n)
	out.layer["runner.dedup_frac"] = 1 - ratio(simulated, submitted)
	return out, nil
}
