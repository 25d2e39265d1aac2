// Package adapt implements the ICR-ADAPT runtime replication controller:
// a feedback loop that watches the ICR data cache over fixed observation
// epochs and retunes its replication knobs online through the core.Retune
// seam — replica count, victim policy, decay window, and PS↔PP replica
// lookup — so one scheme can track a workload whose locality regime
// changes mid-run, where every static scheme must pick one point and live
// with it.
//
// The controller walks a five-rung aggressiveness ladder (see tuneFor)
// under a hysteresis rule: a predictor inspects each epoch's counter
// deltas and liveness census and votes to replicate more, replicate less,
// or hold; only Config.Hysteresis consecutive agreeing votes commit a
// one-rung move. Two predictors share the seam: the paper's decay-counter
// view (supply of dead lines vs. demand from vulnerable dirty data) and
// an EHC-style expected-hit-count view (after Shah et al.,
// arXiv:1808.05024): blocks' expected remaining hits, estimated from
// aggregate reuse per fill, decide whether replicas are worth their
// upkeep.
//
// Determinism contract: every decision derives only from epoch counters
// (core.Stats deltas and a LivenessSurvey taken at the epoch boundary) —
// no wall-clock, no global RNG, no map iteration — so a run with the
// controller is as replayable and memoizable as a static one, and
// byte-identical at any worker count.
package adapt

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// PredictorKind selects the controller's driving predictor.
type PredictorKind uint8

// Predictor kinds.
const (
	// PredictorNone disables the controller (the zero value: a zero
	// Config means "static run").
	PredictorNone PredictorKind = iota
	// PredictorDecay votes from the decay mechanism's own signals: the
	// supply of dead lines against the demand from vulnerable dirty data.
	PredictorDecay
	// PredictorEHC votes from an expected-hit-count estimate: reuse per
	// fill decides whether blocks live long enough for replicas to pay.
	PredictorEHC
)

// String returns the predictor's short name.
func (k PredictorKind) String() string {
	switch k {
	case PredictorNone:
		return "none"
	case PredictorDecay:
		return "decay"
	case PredictorEHC:
		return "ehc"
	default:
		return fmt.Sprintf("predictor(%d)", uint8(k))
	}
}

// ParsePredictor is the inverse of PredictorKind.String for the enabled
// kinds.
func ParsePredictor(s string) (PredictorKind, error) {
	switch s {
	case "decay":
		return PredictorDecay, nil
	case "ehc":
		return PredictorEHC, nil
	default:
		return PredictorNone, fmt.Errorf("unknown adapt predictor %q (have decay, ehc)", s)
	}
}

// Config parameterizes the runtime controller. The zero value disables
// it. All fields are plain values, and runner.KeyFor fingerprints every
// field, so adaptive runs never collide with static ones (or with
// differently tuned adaptive ones) in the memo cache, the disk store, or
// the fleet.
type Config struct {
	// Predictor selects the driving predictor; PredictorNone disables
	// the controller entirely.
	Predictor PredictorKind

	// Epoch is the observation-epoch length in cycles
	// (0 = DefaultEpoch).
	Epoch uint64

	// Hysteresis is how many consecutive agreeing predictor votes are
	// needed to commit a knob move (0 = DefaultHysteresis). Higher values
	// move later but never thrash at a noisy phase boundary.
	Hysteresis int

	// MaxReplicas bounds the replica-count knob at the ladder's top rung
	// (0 = DefaultMaxReplicas).
	MaxReplicas int

	// MinWindow is the decay window used by the aggressive rungs, in
	// cycles (0 = DefaultMinWindow, the §5.4 relaxed window). The ladder
	// never drops to the paper's most aggressive setting of 0 on its
	// own: dead-on-access-completion churns installs and displaces
	// soon-reused lines, which the controller would only have to learn
	// to avoid; ask for it explicitly (minwindow=1) if you want it.
	MinWindow uint64

	// MaxWindow is the decay window used by the conservative rungs, in
	// cycles (0 = DefaultMaxWindow).
	MaxWindow uint64
}

// Controller defaults.
const (
	DefaultEpoch       = 20_000
	DefaultHysteresis  = 2
	DefaultMaxReplicas = 2
	DefaultMinWindow   = 1_000
	DefaultMaxWindow   = 4_000
)

// Enabled reports whether the controller is requested at all.
func (c Config) Enabled() bool { return c.Predictor != PredictorNone }

// Normalized fills defaulted fields of an enabled config; a disabled
// config normalizes to the zero value.
func (c Config) Normalized() Config {
	if !c.Enabled() {
		return Config{}
	}
	if c.Epoch == 0 {
		c.Epoch = DefaultEpoch
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = DefaultHysteresis
	}
	if c.MaxReplicas <= 0 {
		c.MaxReplicas = DefaultMaxReplicas
	}
	if c.MinWindow == 0 {
		c.MinWindow = DefaultMinWindow
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = DefaultMaxWindow
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow
	}
	return c
}

// SchemeName returns the reported scheme label for runs driven by this
// controller: "ICR-ADAPT-decay" or "ICR-ADAPT-ehc".
func (c Config) SchemeName() string { return "ICR-ADAPT-" + c.Predictor.String() }

// Parse parses the textual adapt spec every entry point shares (the
// icrsim/icrbench -adapt flag and the icrd request field). "" disables
// the controller; "decay", "ehc", or "on" (= decay) select a predictor
// with default knobs; otherwise the value is comma-separated key=value
// pairs: predictor (decay|ehc), epoch (cycles), hysteresis (epochs),
// maxreplicas, minwindow, maxwindow (cycles).
func Parse(v string) (Config, error) {
	var c Config
	switch v {
	case "":
		return c, nil
	case "on", "decay":
		c.Predictor = PredictorDecay
		return c, nil
	case "ehc":
		c.Predictor = PredictorEHC
		return c, nil
	}
	for _, part := range strings.Split(v, ",") {
		key, val, found := strings.Cut(strings.TrimSpace(part), "=")
		if !found {
			return Config{}, fmt.Errorf(`bad adapt element %q: want key=value (or "decay"/"ehc")`, part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "predictor" {
			p, err := ParsePredictor(val)
			if err != nil {
				return Config{}, err
			}
			c.Predictor = p
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return Config{}, fmt.Errorf("bad adapt value %q: %w", part, err)
		}
		if (key == "hysteresis" || key == "maxreplicas") && n > math.MaxInt32 {
			// Larger values would wrap negative as an int and silently
			// fall back to the default.
			return Config{}, fmt.Errorf("bad adapt value %q: out of range", part)
		}
		switch key {
		case "epoch":
			c.Epoch = n
		case "hysteresis":
			c.Hysteresis = int(n)
		case "maxreplicas":
			c.MaxReplicas = int(n)
		case "minwindow":
			c.MinWindow = n
		case "maxwindow":
			c.MaxWindow = n
		default:
			return Config{}, fmt.Errorf("unknown adapt key %q (want predictor, epoch, hysteresis, maxreplicas, minwindow, maxwindow)", key)
		}
	}
	if !c.Enabled() {
		return Config{}, fmt.Errorf("adapt spec %q selects no predictor: add predictor=decay|ehc", v)
	}
	return c, nil
}
