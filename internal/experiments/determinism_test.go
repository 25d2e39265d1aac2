package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
)

// determinismDrivers are the figure drivers the parallel-vs-serial
// equivalence is asserted over: per-benchmark arms (fig1), a decay-window
// sweep arm on one benchmark (fig10), one fault-probability sweep arm per
// scheme (fig14), and the adaptive shootout (per-workload arms whose knobs
// retune mid-flight under the ICR-ADAPT controller). Every driver submits
// through runArms, so these cover both arm shapes; the driver goldens
// (TestDriverGoldens) pin every driver's output.
var determinismDrivers = []struct {
	name   string
	driver driver
}{
	{"fig1", fig1},
	{"fig10", fig10},
	{"fig14", fig14},
	{"adaptive", adaptiveShootout},
}

// serialOracle reproduces the pre-runner code path: every simulation is a
// direct sim.Simulate call, executed one at a time in submission order,
// with no memoization, no cancellation plumbing, and no worker pool.
func serialOracle() *runner.Runner {
	return runner.New(runner.Options{
		Workers:   1,
		CacheSize: -1,
		Simulate: func(_ context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
			return sim.Simulate(m, r)
		},
	})
}

// TestParallelMatchesSerial is the determinism guarantee end to end: for
// each driver, the parallel runner (8 workers), the single-worker runner,
// and the pre-runner serial path must produce byte-identical CSV output and
// deep-equal series.
func TestParallelMatchesSerial(t *testing.T) {
	configs := []struct {
		name string
		mk   func() *runner.Runner
	}{
		{"serial-oracle", serialOracle},
		{"workers=1", func() *runner.Runner {
			return runner.New(runner.Options{Workers: 1, CacheSize: -1})
		}},
		{"workers=8", func() *runner.Runner {
			return runner.New(runner.Options{Workers: 8, CacheSize: -1})
		}},
		{"workers=8+memo", func() *runner.Runner {
			return runner.New(runner.Options{Workers: 8})
		}},
	}
	for _, d := range determinismDrivers {
		t.Run(d.name, func(t *testing.T) {
			var goldenCSV string
			var golden *Result
			for _, cfg := range configs {
				res, err := d.driver(context.Background(), Options{
					Instructions: 20_000,
					Runner:       cfg.mk(),
				})
				if err != nil {
					t.Fatalf("%s: %v", cfg.name, err)
				}
				csv := res.CSV()
				if golden == nil {
					golden, goldenCSV = res, csv
					continue
				}
				if csv != goldenCSV {
					t.Errorf("%s: CSV diverged from %s:\n%s\nvs\n%s",
						cfg.name, configs[0].name, csv, goldenCSV)
				}
				if !reflect.DeepEqual(res.Series, golden.Series) {
					t.Errorf("%s: series values diverged from %s", cfg.name, configs[0].name)
				}
				if !reflect.DeepEqual(res.XTicks, golden.XTicks) {
					t.Errorf("%s: x-ticks diverged", cfg.name)
				}
			}
		})
	}
}

// TestRepeatedParallelRunsIdentical: the same driver twice on the same
// shared runner (memo hits the second time) yields identical results —
// cached reports are indistinguishable from fresh ones.
func TestRepeatedParallelRunsIdentical(t *testing.T) {
	eng := runner.New(runner.Options{Workers: 8})
	opts := Options{Instructions: 20_000, Runner: eng}
	first, err := fig1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fig1(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.CSV() != second.CSV() {
		t.Error("memoized rerun produced different CSV output")
	}
	if !reflect.DeepEqual(first.Series, second.Series) {
		t.Error("memoized rerun produced different series")
	}
	if snap := eng.Progress().Snapshot(); snap.MemoHits == 0 {
		t.Error("second run should have hit the memo cache")
	}
}

// TestDriverCancellation: cancelling the experiment context mid-driver
// surfaces the cancellation as an error rather than a partial Result.
func TestDriverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, "fig1", Options{
		Instructions: 20_000,
		Runner:       runner.New(runner.Options{Workers: 2, CacheSize: -1}),
	})
	if err == nil {
		t.Fatal("cancelled context should fail the driver")
	}
}
