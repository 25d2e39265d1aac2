package sim

// ForceAhead overrides the pipelining gate for the tests of package
// sim_test: 1 draws every quota on a producer, -1 none, 0 restores the
// gate.
func ForceAhead(mode int32) { forceAhead.Store(mode) }

// AheadModes are the gate settings the identity tests run under, by name.
var AheadModes = aheadModes
