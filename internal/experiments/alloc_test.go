package experiments

import (
	"context"
	"testing"

	"repro/internal/runner"
)

// TestSweepAllocsPerRun bounds what a figure sweep allocates per submitted
// run. Each sweep goes through a fresh one-worker runner, so every run
// misses the memo and simulates. Building a sim arena costs ~800
// allocations, so the bound fails if the sim instance pool silently stops
// reusing arenas inside a sweep. The bound is 1.25x the 1316 measured
// when it was set: fig2's 16 runs, nearly all of it inside sim.Simulate.
func TestSweepAllocsPerRun(t *testing.T) {
	var submitted, completed uint64
	allocs := testing.AllocsPerRun(2, func() {
		rn := runner.New(runner.Options{Workers: 1})
		if _, err := Run(context.Background(), "fig2", Options{Instructions: 30_000, Seed: 1, Runner: rn}); err != nil {
			t.Fatal(err)
		}
		snap := rn.Progress().Snapshot()
		submitted, completed = snap.Submitted, snap.Completed
	})
	if submitted == 0 || completed != submitted {
		t.Fatalf("fresh runner simulated %d of %d submitted runs, want all", completed, submitted)
	}
	perRun := allocs / float64(submitted)
	if bound := 1645.0; perRun > bound {
		t.Errorf("sweep allocates %.0f objects per submitted run, want <= %.0f "+
			"(did the sim instance pool stop reusing arenas?)", perRun, bound)
	}
}
