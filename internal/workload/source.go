package workload

import "math/rand"

// source is math/rand's default Source, rand.NewSource's additive lagged
// Fibonacci generator, as a concrete type: the generator's hot draws call
// it directly instead of through rand.Rand's interface, and a rand.Rand
// built over it serves every other draw from the same state. Its output is
// math/rand's exactly (TestSourceMatchesMathRand).
type source struct {
	tap, feed int
	vec       [srcLen]int64
}

const (
	srcLen = 607 // register length
	srcTap = 273 // tap distance behind the feed

	// redrawBound is the smallest Int63 value x whose float64(x)/(1<<63)
	// rounds to 1. rand.Float64 redraws such a value, so a threshold
	// test that replaces it redraws at and above this bound too. Every
	// x in [2^62, 2^63) rounds to a multiple of 2^10; 2^63 − 2^9 is the
	// tie between 2^63 − 2^10 and 2^63, and rounds to the even 2^63.
	// TestThresholdNeighbours certifies it.
	redrawBound = 1<<63 - 1<<9
)

var (
	_ rand.Source   = (*source)(nil)
	_ rand.Source64 = (*source)(nil)
)

// Seed sets s to the state rand.NewSource(seed) starts in. That state is
// math/rand's private seeding table folded with the seed, so it is
// recovered from the outputs instead: each step moves tap and feed back by
// one (mod srcLen), adds vec[tap] into vec[feed] and returns the sum.
// srcLen steps write every slot once and bring tap and feed back to their
// starting places, so srcLen outputs are the whole register srcLen steps
// on. Undoing the steps, last first, restores the start: a step never
// writes the slot it reads (feed and tap stay srcLen−srcTap apart), and
// every later step is already undone when an earlier one is.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, srcLen-srcTap
	for range srcLen {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range srcLen {
		s.vec[s.feed] -= s.vec[s.tap]
		if s.tap++; s.tap == srcLen {
			s.tap = 0
		}
		if s.feed++; s.feed == srcLen {
			s.feed = 0
		}
	}
}

// step moves tap and feed one slot back, as every output does.
func (s *source) step() {
	if s.tap--; s.tap < 0 {
		s.tap += srcLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += srcLen
	}
}

// Uint64 returns the next 64 bits, as math/rand's source does.
func (s *source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value in [0, 2^63).
func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// float returns the Int63 value behind one rand.Float64 call on s:
// Float64 is float64(x)/(1<<63) for the first x below redrawBound, so
// Float64() < p is float() < lessThan(p) and Float64() > p is
// float() >= atMost(p).
func (s *source) float() uint64 {
	for {
		if x := s.Uint64() &^ (1 << 63); x < redrawBound {
			return x
		}
	}
}

// lessThan returns the threshold t for which float64(x)/(1<<63) < p
// exactly when x < t, for every x below redrawBound. Conversion to
// float64 rounds monotonically and the division by 2^63 is exact, so the
// x passing the test form a prefix of [0, 2^63), and bisection finds its
// end. A NaN p passes no x, as Float64() < NaN never holds.
func lessThan(p float64) uint64 {
	return firstWhere(func(f float64) bool { return !(f < p) })
}

// atMost returns the threshold t for which float64(x)/(1<<63) > p exactly
// when x >= t, for every x below redrawBound.
func atMost(p float64) uint64 {
	return firstWhere(func(f float64) bool { return f > p })
}

// firstWhere returns the smallest x in [0, 2^63) for which
// cond(float64(x)/(1<<63)) holds, or 2^63 if none does. cond must be
// monotone: false up to some x, true from there on.
func firstWhere(cond func(f float64) bool) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		m := lo + (hi-lo)/2
		if cond(float64(m) / (1 << 63)) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
