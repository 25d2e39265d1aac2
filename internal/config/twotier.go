package config

import (
	"fmt"

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
	Protect core.Protection `spec:"protect"`

	// Replicate enables in-tier ICR: tier fills replicate into dead or
	// invalid ways at distance sets/2, and the tier's recovery ladder
	// consults replicas before ECC or a memory refetch.
	Replicate bool `spec:"replicate"`

	// Victim selects the replica-placement victim policy inside the tier
	// (defaults to DeadOnly).
	Victim core.VictimPolicy `spec:"victim"`

	// DecayWindow is the tier's dead-block decay window in cycles
	// (0 = dead as soon as the access completes, as in the paper's most
	// aggressive setting).
	DecayWindow uint64 `spec:"decay"`

	// CrossTier enables two-way cross-tier placement: L1 replication
	// shortfalls may park copies in dead tier space and tier shortfalls
	// may park copies in dead L1 space, with repairs priced at the far
	// tier's access cost. Requires Replicate.
	CrossTier bool `spec:"cross"`

	// ExtraLatency is added to every tier access, modeling a remote/CXL
	// tier instead of an on-chip L2. It also prices cross-tier repairs:
	// recovering a word from the far tier costs that tier's reach.
	ExtraLatency uint64 `spec:"latency"`

	// Fault enables the tier's own transient-error injection, independent
	// of the L1 injector. Its spec keys are fault (model), prob and
	// faultseed.
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

// twoTierShortcuts are the -twotier specs that name a configuration
// ("" and "off": no tier; "icr": parity with in-tier replication).
var twoTierShortcuts = map[string]TwoTier{
	"": {}, "off": {},
	"parity": {Protect: core.ParityProt}, "ecc": {Protect: core.ECCProt},
	"icr": {Protect: core.ParityProt, Replicate: true}, "icr-ecc": {Protect: core.ECCProt, Replicate: true},
}

// ParseTwoTier parses a -twotier spec: one of twoTierShortcuts ("",
// "off", "parity", "ecc", "icr", "icr-ecc"), or a spec that sets
// TwoTier's keys: protect (parity|ecc), replicate (bool), victim (core
// victim policy), decay (cycles), cross (bool), latency (extra cycles),
// fault (injection model), prob (per-cycle probability), and faultseed
// (int64). A key the rest of the spec would silently drop is rejected:
// victim and decay need replicate=true, fault and faultseed need prob.
func ParseTwoTier(s string) (TwoTier, error) {
	if t, ok := twoTierShortcuts[s]; ok {
		return t.Normalized(), nil
	}
	var t TwoTier
	seen, err := parseSpec(&t, s)
	if err != nil {
		return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %w", s, err)
	}
	if err := t.Validate(); err != nil {
		return TwoTier{}, err
	}
	for _, key := range seen {
		switch {
		case (key == "victim" || key == "decay") && !t.Replicate:
			return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %s applies to in-tier replication (replicate=true)", s, key)
		case (key == "fault" || key == "faultseed") && t.Fault.Prob == 0:
			return TwoTier{}, fmt.Errorf("config: two-tier spec %q: %s applies to tier fault injection (prob=)", s, key)
		}
	}
	return t.Normalized(), nil
}
