package config

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
)

// TwoTier configures protection for the second tier of the hierarchy (the
// unified L2, or a remote/CXL tier when ExtraLatency models the longer
// reach). The zero value disables the protected tier entirely: the L2
// stays the plain timing model and every existing report is unchanged.
type TwoTier struct {
	// Protect selects the baseline protection of tier lines (parity or
	// SEC-DED). 0 disables the protected tier.
	Protect core.Protection

	// Replicate enables in-tier ICR: tier fills replicate into dead or
	// invalid ways at distance sets/2, and the tier's recovery ladder
	// consults replicas before ECC or a memory refetch.
	Replicate bool

	// Victim selects the replica-placement victim policy inside the tier
	// (defaults to DeadOnly).
	Victim core.VictimPolicy

	// DecayWindow is the tier's dead-block decay window in cycles
	// (0 = dead as soon as the access completes, as in the paper's most
	// aggressive setting).
	DecayWindow uint64

	// CrossTier enables two-way cross-tier placement: L1 replication
	// shortfalls may park copies in dead tier space and tier shortfalls
	// may park copies in dead L1 space, with repairs priced at the far
	// tier's access cost. Requires Replicate.
	CrossTier bool

	// ExtraLatency is added to every tier access, modeling a remote/CXL
	// tier instead of an on-chip L2. It also prices cross-tier repairs:
	// recovering a word from the far tier costs that tier's reach.
	ExtraLatency uint64

	// Fault enables the tier's own transient-error injection, independent
	// of the L1 injector.
	Fault FaultConfig
}

// Enabled reports whether the protected second tier is requested at all.
func (t TwoTier) Enabled() bool { return t.Protect != 0 }

// Normalized canonicalizes the config: a disabled tier collapses to the
// zero value (so equal-after-defaulting runs share a pool shape), an
// enabled replicating tier gets the default victim policy, and injection
// requested by probability alone gets the default model.
func (t TwoTier) Normalized() TwoTier {
	if !t.Enabled() {
		return TwoTier{}
	}
	if !t.Replicate {
		t.Victim = 0
		t.DecayWindow = 0
		t.CrossTier = false
	} else if t.Victim == 0 {
		t.Victim = core.DeadOnly
	}
	if t.Fault.Prob <= 0 {
		t.Fault = FaultConfig{}
	} else if t.Fault.Model == 0 {
		t.Fault.Model = fault.Random
	}
	return t
}

// Validate reports contradictions a Normalized config cannot express.
func (t TwoTier) Validate() error {
	if !t.Enabled() {
		if t.Replicate || t.CrossTier || t.ExtraLatency != 0 || t.Fault.Prob != 0 {
			return fmt.Errorf("config: two-tier options set without a tier protection (use protect=parity or protect=ecc)")
		}
		return nil
	}
	if t.CrossTier && !t.Replicate {
		return fmt.Errorf("config: cross-tier placement requires in-tier replication (replicate=true)")
	}
	if p := t.Fault.Prob; p != 0 && !(p > 0 && p <= 1) {
		return fmt.Errorf("config: two-tier fault probability %v outside [0, 1]", p)
	}
	return nil
}

// Name returns a stable short label for the tier configuration: "off",
// "P", "ECC", "ICR-P", "ICR-ECC", with "+x" appended when cross-tier
// placement is on.
func (t TwoTier) Name() string {
	if !t.Enabled() {
		return "off"
	}
	name := t.Protect.String()
	if t.Replicate {
		name = "ICR-" + name
	}
	if t.CrossTier {
		name += "+x"
	}
	return name
}

// ParseTwoTier parses a -twotier spec. "" and "off" disable the tier.
// The shortcuts "parity", "ecc", "icr" (parity + in-tier replication),
// and "icr-ecc" expand to common configurations; otherwise the spec is a
// comma-separated key=value list with keys protect (parity|ecc),
// replicate (bool), victim (core victim policy), decay (cycles), cross
// (bool), latency (extra cycles), fault (injection model), prob
// (per-cycle probability), and faultseed (int64). Spaces around
// elements, keys and values are ignored. A key the rest of the spec
// would silently drop is rejected: victim and decay need replicate=true,
// fault and faultseed need prob.
func ParseTwoTier(s string) (TwoTier, error) {
	switch s {
	case "", "off":
		return TwoTier{}, nil
	case "parity":
		return TwoTier{Protect: core.ParityProt}.Normalized(), nil
	case "ecc":
		return TwoTier{Protect: core.ECCProt}.Normalized(), nil
	case "icr":
		return TwoTier{Protect: core.ParityProt, Replicate: true}.Normalized(), nil
	case "icr-ecc":
		return TwoTier{Protect: core.ECCProt, Replicate: true}.Normalized(), nil
	}
	var t TwoTier
	var replKey, faultKey string // last key that needs replicate=true / prob
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %q is not key=value", s, part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "protect":
			t.Protect, err = core.ParseProtection(val)
		case "replicate":
			t.Replicate, err = strconv.ParseBool(val)
		case "victim":
			t.Victim, err = core.ParseVictimPolicy(val)
			replKey = key
		case "decay":
			t.DecayWindow, err = strconv.ParseUint(val, 10, 64)
			replKey = key
		case "cross":
			t.CrossTier, err = strconv.ParseBool(val)
		case "latency":
			t.ExtraLatency, err = strconv.ParseUint(val, 10, 64)
		case "fault":
			t.Fault.Model, err = fault.ParseModel(val)
			faultKey = key
		case "prob":
			t.Fault.Prob, err = strconv.ParseFloat(val, 64)
		case "faultseed":
			t.Fault.Seed, err = strconv.ParseInt(val, 10, 64)
			faultKey = key
		default:
			return TwoTier{}, fmt.Errorf("config: two-tier spec %q: unknown key %q", s, key)
		}
		if err != nil {
			return TwoTier{}, fmt.Errorf("config: two-tier spec %q: key %q: %w", s, key, err)
		}
	}
	if err := t.Validate(); err != nil {
		return TwoTier{}, err
	}
	if replKey != "" && !t.Replicate {
		return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %s applies to in-tier replication (replicate=true)", s, replKey)
	}
	if faultKey != "" && t.Fault.Prob == 0 {
		return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %s applies to tier fault injection (prob=)", s, faultKey)
	}
	return t.Normalized(), nil
}
