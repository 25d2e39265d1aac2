package sim

import "testing"

// With a stride-1 clock the ticker fires exactly once per interval boundary
// — identical to the old loop. The detailed core never jumps past the
// ticker's next due cycle, so it sees the same firings.
func TestScrubTickerStrideOne(t *testing.T) {
	tick := newScrubTicker(100)
	fired := 0
	for now := uint64(0); now <= 1000; now++ {
		if tick.due(now) {
			fired++
			if now%100 != 0 || now == 0 {
				t.Errorf("fired at %d, want multiples of 100 only", now)
			}
		}
	}
	if fired != 10 {
		t.Errorf("fired %d times over 1000 cycles, want 10", fired)
	}
}

// Regression test for the burst bug: a clock that jumps far past many due
// times (e.g. a hook observing a huge stall) must trigger exactly ONE
// catch-up pass, and the schedule must realign past now — not replay one
// pass per missed interval at the same timestamp.
func TestScrubTickerLargeJumpSingleCatchUp(t *testing.T) {
	tick := newScrubTicker(100)

	// Jump straight to cycle 10_000: 100 intervals elapsed.
	fired := 0
	for i := 0; i < 5; i++ { // repeated calls at the same now must not re-fire
		if tick.due(10_000) {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times at the jump, want exactly 1 catch-up", fired)
	}

	// The schedule realigned: next fire is the first boundary after 10_000.
	if tick.due(10_050) {
		t.Error("fired before the next boundary after the jump")
	}
	if !tick.due(10_100) {
		t.Error("did not fire at the realigned boundary 10100")
	}
	if tick.due(10_100) {
		t.Error("double-fired at the same boundary")
	}
}

// A jump that lands exactly on a boundary is one pass, then resumes the
// normal cadence.
func TestScrubTickerJumpOntoBoundary(t *testing.T) {
	tick := newScrubTicker(7)
	if !tick.due(70) {
		t.Fatal("no pass at boundary 70")
	}
	if tick.due(76) {
		t.Error("fired before next boundary")
	}
	if !tick.due(77) {
		t.Error("did not resume cadence at 77")
	}
}
