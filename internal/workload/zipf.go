package workload

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// zipfTable draws the exact value stream of math/rand's Zipf(rng, q, 1,
// imax) — the same Float64 draw per attempt, the same accept or reject
// decision, the same variate — without math/rand's Exp and Log on every
// attempt.
//
// math/rand's rejection-inversion sampler maps each draw r to
// ur = hxm + r·hx0minusHxm, inverts x = hinv(ur), rounds k = ⌊x+0.5⌋ and
// accepts k if k−x ≤ s (test 1) or ur ≥ h(k+0.5) − (k+1)^−q (test 2).
// Because h is increasing, the outcome is a step function of ur: k changes
// only at the bucket bounds h(k+0.5), and test 1 flips only at h(k−s). The
// table holds those bounds, sorted, with the outcome of every interval
// between them: the variate k, and whether test 2 still decides. Test 2's
// threshold is computed per k with math/rand's own floating-point
// expression, so comparing ur against it is exact.
//
// The bounds are computed, like math/rand's x, through Exp and Log, so
// each can sit a few ulps from the real value. An ur within a relative
// margin of any bound (see margin) therefore takes math/rand's verbatim
// formula instead. The margin is about 10^6 times the accumulated
// rounding error of either side, so outside it the two computations
// cannot disagree.
//
// A direct-lookup grid over r answers most draws without a search: cell
// c covers r ∈ [c/zipfCells, (c+1)/zipfCells), whose index r·zipfCells is
// exact, and holds the cell's outcome whenever the whole cell lies in one
// interval clear of the margins.
type zipfTable struct {
	// math/rand's Zipf parameters, computed with its expressions. q is the
	// exponent, s the test-1 squeeze constant, v = 1 the offset.
	imax, v, q, s           float64
	oneminusQ, oneminusQinv float64
	hxm, hx0minusHxm        float64

	rel      float64   // relative margin around each bound
	bounds   []float64 // ascending ur-space bounds
	outcomes []uint32  // outcomes[i] holds for ur in (bounds[i-1], bounds[i]]
	t2       []float64 // test-2 threshold per k
	grid     [zipfCells]uint32
}

const (
	// zipfCells is the size of the direct-lookup grid; a power of two, so
	// the cell index of a Float64 draw is exact.
	zipfCells = 1 << 12

	// zipfMaxTable bounds the table: above it, every draw takes the
	// verbatim formula. The largest Hot region in the profiles has 128
	// blocks.
	zipfMaxTable = 1 << 16

	// zipfSlow marks a grid cell that needs the bound search, or an
	// interval that needs the verbatim formula. Any other outcome is
	// k<<1 | needsTest2.
	zipfSlow = ^uint32(0)
)

// zipfTables caches one table per (q, imax), shared by every generator in
// the process: building one evaluates h at every bound and searches the
// bounds once per grid cell, a sizeable share of a New. A table is
// immutable and depends on its key alone, so sharing cannot change a
// draw. The cache holds at most zipfCacheMax tables; beyond that, tables
// are built per sampler.
var zipfTables = struct {
	sync.Mutex
	m map[zipfKey]*zipfTable
}{m: map[zipfKey]*zipfTable{}}

const zipfCacheMax = 64

type zipfKey struct {
	qbits uint64
	imax  uint64
}

// newZipf returns the table for math/rand's NewZipf(rng, q, 1, imax),
// from the process-wide cache when it holds one. q must exceed 1.
func newZipf(q float64, imax uint64) *zipfTable {
	key := zipfKey{math.Float64bits(q), imax}
	zipfTables.Lock()
	t := zipfTables.m[key]
	zipfTables.Unlock()
	if t != nil {
		return t
	}
	t = buildZipfTable(q, imax)
	zipfTables.Lock()
	defer zipfTables.Unlock()
	if prev := zipfTables.m[key]; prev != nil {
		return prev
	}
	if len(zipfTables.m) < zipfCacheMax {
		zipfTables.m[key] = t
	}
	return t
}

// h and hinv are math/rand's, verbatim.
func (t *zipfTable) h(x float64) float64 {
	return math.Exp(t.oneminusQ*math.Log(t.v+x)) * t.oneminusQinv
}

func (t *zipfTable) hinv(x float64) float64 {
	return math.Exp(t.oneminusQinv*math.Log(t.oneminusQ*x)) - t.v
}

func buildZipfTable(q float64, imax uint64) *zipfTable {
	// The parameters, as math/rand's NewZipf computes them.
	t := &zipfTable{imax: float64(imax), v: 1, q: q}
	t.oneminusQ = 1.0 - t.q
	t.oneminusQinv = 1.0 / t.oneminusQ
	t.hxm = t.h(t.imax + 0.5)
	t.hx0minusHxm = t.h(0.5) - math.Exp(math.Log(t.v)*(-t.q)) - t.hxm
	t.s = 1 - t.hinv(t.h(1.5)-math.Exp(-t.q*math.Log(t.v+1.0)))
	t.rel = margin(q, imax)

	if imax > zipfMaxTable {
		t.outcomes = []uint32{zipfSlow}
		for c := range t.grid {
			t.grid[c] = zipfSlow
		}
		return t
	}

	t.t2 = make([]float64, imax+1)
	bounds := make([]float64, 0, 2*(imax+1))
	for k := uint64(0); k <= imax; k++ {
		kf := float64(k)
		t.t2[k] = t.h(kf+0.5) - math.Exp(-math.Log(kf+t.v)*t.q)
		for _, b := range [2]float64{t.h(kf + 0.5), t.h(kf - t.s)} {
			// h(k−s) is undefined where k−s ≤ −1; such a bound lies
			// below every reachable ur.
			if !math.IsNaN(b) && !math.IsInf(b, 0) {
				bounds = append(bounds, b)
			}
		}
	}
	sort.Float64s(bounds)
	t.bounds = bounds

	// ur spans [hxm + hx0minusHxm, hxm]: hx0minusHxm < 0 and r ∈ [0, 1).
	lo, hi := t.hxm+t.hx0minusHxm, t.hxm
	t.outcomes = make([]uint32, len(t.bounds)+1)
	for i := range t.outcomes {
		a, b := lo, hi
		if i > 0 {
			a = math.Max(a, t.bounds[i-1]+t.marginAt(t.bounds[i-1]))
		}
		if i < len(t.bounds) {
			b = math.Min(b, t.bounds[i]-t.marginAt(t.bounds[i]))
		}
		t.outcomes[i] = zipfSlow
		if a < b {
			t.outcomes[i] = t.outcomeAt(a + (b-a)/2)
		}
	}

	for c := range t.grid {
		// Float64 draws in cell c map, monotonically, onto [ulo, uhi].
		uhi := t.hxm + (float64(c)/zipfCells)*t.hx0minusHxm
		ulo := t.hxm + (float64(c+1)/zipfCells)*t.hx0minusHxm
		t.grid[c] = zipfSlow
		if i := t.search(uhi); t.safe(i, ulo, uhi) {
			t.grid[c] = t.outcomes[i]
		}
	}
	return t
}

// margin is the relative distance from a bound inside which a draw takes
// the verbatim formula. The rounding error of math/rand's x, mapped back
// to ur-space, and of a bound computed through h are each a few ulps of
// |ur| times 1 + (q−1)(ln(1+x) + c) for a small constant c, since h and
// hinv take Exp of (q−1)·ln(1+x). The margin is 10^−9 — about 4.5·10^6
// ulps — times that same factor, taken at the largest x.
func margin(q float64, imax uint64) float64 {
	return 1e-9 * (1 + (q-1)*(2*math.Log(float64(imax)+1.5)+4))
}

func (t *zipfTable) marginAt(b float64) float64 { return t.rel * math.Abs(b) }

// outcomeAt evaluates math/rand's decision at ur up to test 2, which the
// caller applies exactly. ur must lie clear of every bound.
func (t *zipfTable) outcomeAt(ur float64) uint32 {
	x := t.hinv(ur)
	k := math.Floor(x + 0.5)
	if !(k >= 0 && k <= t.imax) {
		return zipfSlow
	}
	o := uint32(k) << 1
	if !(k-x <= t.s) {
		o |= 1
	}
	return o
}

// search returns the index i of the interval (bounds[i-1], bounds[i]]
// that holds ur.
func (t *zipfTable) search(ur float64) int {
	i, j := 0, len(t.bounds)
	for i < j {
		m := int(uint(i+j) >> 1)
		if t.bounds[m] < ur {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// safe reports whether [lo, hi], inside interval i, keeps clear of both
// of the interval's bounds by their margins, so interval i's outcome
// holds throughout.
func (t *zipfTable) safe(i int, lo, hi float64) bool {
	if t.outcomes[i] == zipfSlow {
		return false
	}
	if i > 0 && lo-t.bounds[i-1] <= t.marginAt(t.bounds[i-1]) {
		return false
	}
	return i == len(t.bounds) || t.bounds[i]-hi > t.marginAt(t.bounds[i])
}

// draw returns the next variate, drawing from rng exactly as math/rand's
// (*Zipf).Uint64 does.
func (t *zipfTable) draw(rng *rand.Rand) uint64 {
	for {
		r := rng.Float64()
		ur := t.hxm + r*t.hx0minusHxm
		o := t.grid[uint(r*zipfCells)]
		if o == zipfSlow {
			if i := t.search(ur); t.safe(i, ur, ur) {
				o = t.outcomes[i]
			} else if k, ok := t.verbatim(ur); ok {
				return k
			} else {
				continue
			}
		}
		if k := o >> 1; o&1 == 0 || ur >= t.t2[k] {
			return uint64(k)
		}
	}
}

// verbatim is one attempt of math/rand's (*Zipf).Uint64 for a given ur.
func (t *zipfTable) verbatim(ur float64) (uint64, bool) {
	x := t.hinv(ur)
	k := math.Floor(x + 0.5)
	if k-x <= t.s {
		return uint64(k), true
	}
	if ur >= t.h(k+0.5)-math.Exp(-math.Log(k+t.v)*t.q) {
		return uint64(k), true
	}
	return 0, false
}
