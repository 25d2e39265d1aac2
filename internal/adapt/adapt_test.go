package adapt

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

func TestNormalized(t *testing.T) {
	// Disabled stays zero regardless of other fields.
	if got := (Config{Epoch: 999}).Normalized(); got != (Config{}) {
		t.Errorf("disabled config normalized to %+v, want zero", got)
	}
	got := Config{Predictor: PredictorDecay}.Normalized()
	want := Config{
		Predictor: PredictorDecay, Epoch: DefaultEpoch,
		Hysteresis: DefaultHysteresis, MaxReplicas: DefaultMaxReplicas,
		MinWindow: DefaultMinWindow, MaxWindow: DefaultMaxWindow,
	}
	if got != want {
		t.Errorf("Normalized() = %+v, want %+v", got, want)
	}
	// MaxWindow is clamped up to MinWindow.
	got = Config{Predictor: PredictorEHC, MinWindow: 9000, MaxWindow: 100}.Normalized()
	if got.MaxWindow != 9000 {
		t.Errorf("MaxWindow = %d, want clamped to MinWindow 9000", got.MaxWindow)
	}
	// Normalization is idempotent (the pool-shape canonicalization relies
	// on it).
	if again := got.Normalized(); again != got {
		t.Errorf("Normalized not idempotent: %+v vs %+v", again, got)
	}
}

func TestSchemeName(t *testing.T) {
	if n := (Config{Predictor: PredictorDecay}).SchemeName(); n != "ICR-ADAPT-decay" {
		t.Errorf("SchemeName = %q", n)
	}
	if n := (Config{Predictor: PredictorEHC}).SchemeName(); n != "ICR-ADAPT-ehc" {
		t.Errorf("SchemeName = %q", n)
	}
}

// testCache builds a small ICR cache for controller tests: 8 sets, 2-way,
// 64-byte blocks.
func testCache(t *testing.T) *core.Cache {
	t.Helper()
	mem := cache.NewMemory(6, 64)
	return core.New(core.Config{
		Size: 1024, Assoc: 2, BlockSize: 64,
		Scheme: core.ICR(core.ParityProt, core.LookupSerial, core.ReplStores),
		Repl:   core.ReplConfig{Replicas: 1, Victim: core.DeadOnly},
		Next:   mem, Mem: mem,
	})
}

func TestLadderEndpoints(t *testing.T) {
	ctrl := NewController(Config{Predictor: PredictorDecay, MaxReplicas: 2, MinWindow: 500, MaxWindow: 4000})
	t0 := ctrl.tuneFor(0)
	if t0.Replicas != 0 {
		t.Errorf("level 0 replicas = %d, want 0 (paused)", t0.Replicas)
	}
	t1 := ctrl.tuneFor(1)
	if t1.Replicas != 1 || t1.Victim != core.DeadOnly || t1.Lookup != core.LookupSerial || t1.DecayWindow != 4000 {
		t.Errorf("level 1 = %+v, want conservative start", t1)
	}
	t4 := ctrl.tuneFor(levelMax)
	if t4.Replicas != 2 || t4.Victim != core.DeadFirst || t4.Lookup != core.LookupParallel || t4.DecayWindow != 500 {
		t.Errorf("level 4 = %+v, want maximally aggressive", t4)
	}
	// The replica-count knob respects MaxReplicas=1 at every rung.
	capped := NewController(Config{Predictor: PredictorDecay, MaxReplicas: 1})
	for lv := 0; lv <= levelMax; lv++ {
		if r := capped.tuneFor(lv).Replicas; r > 1 {
			t.Errorf("level %d replicas = %d, want <= MaxReplicas 1", lv, r)
		}
	}
}

func TestAttachAppliesStartRung(t *testing.T) {
	c := testCache(t)
	ctrl := NewController(Config{Predictor: PredictorDecay, MaxWindow: 4000})
	ctrl.Attach(c)
	tune := c.Tune()
	if tune.DecayWindow != 4000 || tune.Replicas != 1 {
		t.Errorf("after Attach, cache tune = %+v, want the conservative start rung", tune)
	}
}

// driveEpochs feeds the controller hand-built epochs by issuing accesses
// on the cache between boundaries. hot=true re-references stores over a
// 12-block set: it fits the 8x2 array with room for a few replicas, but
// with nothing dead at the conservative window most replication attempts
// fail, leaving dirty parity-only (vulnerable) lines at a low miss rate.
// hot=false streams loads through distinct blocks (high miss rate).
// Epoch numbering continues across calls via ctrl's own boundary state.
func driveEpochs(c *core.Cache, ctrl *Controller, epochs int, hot bool) {
	period := ctrl.EpochCycles()
	start := ctrl.epochs
	next := uint64(0)
	for e := 0; e < epochs; e++ {
		boundary := (start + uint64(e) + 1) * period
		t := boundary - uint64(2*64)
		for i := 0; i < 64; i++ {
			if hot {
				c.Store(t, uint64(i%12)*64)
			} else {
				next++
				c.Load(t, ((start+1)<<20)+next*64)
			}
			t += 2
		}
		ctrl.Epoch(boundary)
	}
}

// TestControllerRampsUpOnHotVulnerableEpochs: a regime of cheap hits over
// dirty parity-only data must move the controller up the ladder.
func TestControllerRampsUpOnHotVulnerableEpochs(t *testing.T) {
	c := testCache(t)
	ctrl := NewController(Config{Predictor: PredictorDecay, Epoch: 1000, Hysteresis: 2})
	ctrl.Attach(c)
	driveEpochs(c, ctrl, 6, true)
	st := ctrl.Stats()
	if st.MovesUp == 0 {
		t.Fatalf("no up-moves after %d hot vulnerable epochs: %+v", st.Epochs, st)
	}
	// The first committed move must be upward from the start rung. (The
	// controller may legitimately step back down later: once replicas
	// start displacing this test's exactly-array-sized working set, the
	// miss rate tells it aggression stopped paying.)
	if st.Trajectory[0].Level != levelStart+1 {
		t.Errorf("first move went to level %d, want %d", st.Trajectory[0].Level, levelStart+1)
	}
}

// TestControllerBacksOffOnAdverseEpochs: a streaming regime (high miss
// rate) must move the controller down toward pause.
func TestControllerBacksOffOnAdverseEpochs(t *testing.T) {
	c := testCache(t)
	ctrl := NewController(Config{Predictor: PredictorDecay, Epoch: 1000, Hysteresis: 2})
	ctrl.Attach(c)
	driveEpochs(c, ctrl, 6, false)
	st := ctrl.Stats()
	if st.MovesDown == 0 {
		t.Errorf("no down-moves after %d adverse epochs: %+v", st.Epochs, st)
	}
	if st.FinalLevel >= levelStart {
		t.Errorf("final level %d, want below the start rung", st.FinalLevel)
	}
	if c.Tune().Replicas != ctrl.tuneFor(st.FinalLevel).Replicas {
		t.Error("cache tune state does not match the controller's final level")
	}
}

// TestHysteresisBlocksSingleEpochFlips: with Hysteresis=3, two agreeing
// epochs must not commit a move, and an alternating vote sequence must
// never move at all.
func TestHysteresisBlocksSingleEpochFlips(t *testing.T) {
	c := testCache(t)
	ctrl := NewController(Config{Predictor: PredictorDecay, Epoch: 1000, Hysteresis: 3})
	ctrl.Attach(c)
	driveEpochs(c, ctrl, 2, true)
	if st := ctrl.Stats(); st.MovesUp != 0 {
		t.Errorf("2 agreeing epochs committed a move under hysteresis 3: %+v", st)
	}

	c2 := testCache(t)
	ctrl2 := NewController(Config{Predictor: PredictorDecay, Epoch: 1000, Hysteresis: 2})
	ctrl2.Attach(c2)
	for e := 0; e < 8; e++ {
		driveEpochs(c2, ctrl2, 1, e%2 == 0) // alternate hot/adverse every epoch
	}
	if st := ctrl2.Stats(); st.MovesUp+st.MovesDown > 1 {
		t.Errorf("alternating epochs thrashed the ladder: %+v", st)
	}
}

// TestResetRestoresZeroRunState: after a run and Reset, the controller
// must behave identically to a fresh one — the pooled-instance contract.
func TestResetRestoresZeroRunState(t *testing.T) {
	cfg := Config{Predictor: PredictorEHC, Epoch: 1000, Hysteresis: 2}

	run := func(ctrl *Controller) *Controller {
		c := testCache(t)
		ctrl.Attach(c)
		driveEpochs(c, ctrl, 5, true)
		driveEpochs(c, ctrl, 5, false)
		return ctrl
	}
	fresh := run(NewController(cfg))
	reused := NewController(cfg)
	run(reused)
	reused.Reset()
	run(reused)

	a, b := fresh.Stats(), reused.Stats()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("reused controller diverged from fresh:\n fresh %+v\nreused %+v", a, b)
	}
}

// TestEpochIsAllocationFree pins the hot-path contract directly (the
// allocfree vet pass checks it statically; this checks it dynamically).
func TestEpochIsAllocationFree(t *testing.T) {
	c := testCache(t)
	ctrl := NewController(Config{Predictor: PredictorDecay, Epoch: 100})
	ctrl.Attach(c)
	now := uint64(0)
	allocs := testing.AllocsPerRun(50, func() {
		now += 100
		ctrl.Epoch(now)
	})
	if allocs != 0 {
		t.Errorf("Epoch allocates %.1f times per call, want 0", allocs)
	}
}
