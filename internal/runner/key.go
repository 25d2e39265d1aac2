package runner

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/config"
)

// Key is the content address of one simulation: a SHA-256 over
// config.AppendCanonical's encoding of (config.Machine, config.Run). Two
// runs share a Key iff they are observationally identical inputs to
// sim.Simulate, so a Key is safe to use for memoization and is stable
// across processes (no pointer, map-order, or per-run state leaks into
// it).
type Key [sha256.Size]byte

// String returns the key as hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor fingerprints a (machine, run) pair. The second result is false
// when the pair cannot be fingerprinted — a behavioural input hides behind
// an opaque value (a non-nil function hook, or a HintPolicy implementation
// the encoding doesn't know) — in which case the run must not be memoized.
func KeyFor(m config.Machine, r config.Run) (Key, bool) {
	b, ok := config.AppendCanonical(make([]byte, 0, 1024), m, r)
	if !ok {
		return Key{}, false
	}
	return sha256.Sum256(b), true
}
