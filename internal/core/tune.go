package core

// Runtime retuning (the adaptive controller's seam, internal/adapt).
//
// Every scheme in the paper fixes its replication knobs at construction;
// the adaptive ICR-ADAPT-* family instead retunes them between observation
// epochs. The knobs that may move at runtime — replica count, victim
// policy, replica lookup mode, decay window — live in a TuneState the
// cache initializes from its Config at construction (and again on Reset),
// so a cache that is never retuned behaves byte-identically to one built
// before this seam existed. Replica placement distances are deliberately
// not tunable: they size the replica-lookup scratch buffers at
// construction and are part of the pool shape.

// TuneState is the runtime-tunable subset of a cache's configuration.
type TuneState struct {
	// Replicas is the per-block replica quota. 0 pauses replication:
	// attempts fail immediately, but resident replicas remain valid,
	// continue to absorb errors, and are still updated by stores.
	Replicas int
	// Victim is the replacement policy at replication sites.
	Victim VictimPolicy
	// Lookup selects serial (PS) or parallel (PP) replica lookup.
	Lookup LookupMode
	// DecayWindow is the dead-block decay window in cycles (0 = a block
	// is dead as soon as its access completes).
	DecayWindow uint64
}

// initTune derives the runtime knob state from the construction config;
// New and Reset both run it, so a pooled cache always starts a run at its
// configured state no matter what a previous run's controller did.
func (c *Cache) initTune() {
	c.cur = TuneState{
		Replicas:    c.cfg.Repl.Replicas,
		Victim:      c.cfg.Repl.Victim,
		Lookup:      c.cfg.Scheme.Lookup,
		DecayWindow: c.cfg.Repl.DecayWindow,
	}
	c.arr.tickPeriod = tickPeriodFor(c.cfg.Repl.DecayWindow)
}

// Tune returns the current runtime knob state.
func (c *Cache) Tune() TuneState { return c.cur }

// Retune changes the runtime knobs mid-run. Zero-valued Victim or Lookup
// fields keep their current setting (the zero values are not valid
// policies); a negative replica count is clamped to 0. Changing the decay
// window re-bases the tick period from the next access on: lines keep
// their recorded last-access ticks, which under the new period may make
// them look older or younger by up to one window — acceptable, and
// deterministic, for a mechanism that is itself a heuristic.
func (c *Cache) Retune(t TuneState) {
	if t.Victim == 0 {
		t.Victim = c.cur.Victim
	}
	if t.Lookup == 0 {
		t.Lookup = c.cur.Lookup
	}
	if t.Replicas < 0 {
		t.Replicas = 0
	}
	c.cur = t
	c.arr.tickPeriod = tickPeriodFor(t.DecayWindow)
}

// LineCount returns the total number of lines in the data array (the
// normalizer for per-line vulnerability rates).
func (c *Cache) LineCount() int { return len(c.arr.Lines) }

// LivenessSurvey is a point-in-time census of the data array, filled by
// SurveyLiveness into a caller-provided struct so the epoch hook that
// polls it stays allocation-free.
type LivenessSurvey struct {
	// Valid counts valid lines (primaries and replicas).
	Valid uint64
	// DeadPrimaries counts valid primary lines the decay mechanism
	// currently predicts dead — the supply of replication real estate.
	DeadPrimaries uint64
	// Replicas counts resident replica lines.
	Replicas uint64
	// Vulnerable counts lines currently holding dirty data whose only
	// protection is parity (no SEC-DED, no replica) — the demand side.
	Vulnerable uint64
}

// SurveyLiveness fills out with the array's current liveness census. It
// reads line metadata only (no data-array traffic, no LRU or decay
// updates), so it models the controller reading the status bits a real
// implementation would already maintain.
func (c *Cache) SurveyLiveness(now uint64, out *LivenessSurvey) {
	*out = LivenessSurvey{}
	for i := range c.arr.Lines {
		ln := &c.arr.Lines[i]
		if !ln.Valid {
			continue
		}
		out.Valid++
		if ln.Replica {
			out.Replicas++
			continue
		}
		if c.dead(ln, now) {
			out.DeadPrimaries++
		}
		if ln.vuln {
			out.Vulnerable++
		}
	}
}
