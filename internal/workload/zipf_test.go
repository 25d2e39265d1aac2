package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// zipfShape is one (exponent, imax) pair a Hot region samples with.
type zipfShape struct {
	q    float64
	imax uint64
}

// hotShapes lists the distinct Zipf shapes of every profile's Hot regions.
func hotShapes() []zipfShape {
	var out []zipfShape
	seen := map[zipfShape]bool{}
	for _, p := range goldenProfiles() {
		for _, spec := range p.Regions {
			if spec.Kind != Hot {
				continue
			}
			r := newRegion(spec, 0, rand.New(rand.NewSource(1)))
			sh := zipfShape{r.zipf.q, uint64(r.zipf.imax)}
			if !seen[sh] {
				seen[sh] = true
				out = append(out, sh)
			}
		}
	}
	return out
}

// compareDraws draws n variates from t and from math/rand's Zipf over
// identically seeded sources, and fails on the first difference. Both
// sources must also end in the same state: the samplers consumed the same
// number of Float64 draws.
func compareDraws(t *testing.T, tab *zipfTable, q float64, imax uint64, src func() rand.Source, n int) {
	t.Helper()
	ours, theirs := rand.New(src()), rand.New(src())
	ref := rand.NewZipf(theirs, q, 1, imax)
	for i := 0; i < n; i++ {
		if got, want := tab.draw(ours), ref.Uint64(); got != want {
			t.Fatalf("q=%v imax=%d draw %d: got %d, math/rand %d", q, imax, i, got, want)
		}
	}
	if a, b := ours.Int63(), theirs.Int63(); a != b {
		t.Fatalf("q=%v imax=%d: sources diverged after %d draws", q, imax, n)
	}
}

// TestZipfMatchesMathRand draws 10M variates per Hot-region shape and seed
// and requires every one to equal math/rand's.
func TestZipfMatchesMathRand(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 500_000
	}
	for _, sh := range hotShapes() {
		for _, seed := range []int64{1, 2, 3} {
			sh, seed := sh, seed
			t.Run("", func(t *testing.T) {
				t.Parallel()
				compareDraws(t, newZipf(sh.q, sh.imax), sh.q, sh.imax,
					func() rand.Source { return rand.NewSource(seed) }, n)
			})
		}
	}
}

// scriptSource yields a fixed prefix of Int63 values, then a seeded
// stream, so a test can force the first Float64 draw of a sampler.
type scriptSource struct {
	prefix []int64
	rest   rand.Source
}

func (s *scriptSource) Int63() int64 {
	if len(s.prefix) > 0 {
		v := s.prefix[0]
		s.prefix = s.prefix[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptSource) Seed(seed int64) { s.rest.Seed(seed) }

// gridUr is the ur that math/rand's sampler maps Float64 draw n/2^53 to.
func gridUr(t *zipfTable, n int64) float64 {
	return t.hxm + (float64(n)/(1<<53))*t.hx0minusHxm
}

// crossing bisects the 2^-53 Float64 grid for the first draw n whose ur
// lies at or below v (ur falls as the draw grows).
func crossing(t *zipfTable, v float64) int64 {
	lo, hi := int64(0), int64(1)<<53
	for lo < hi {
		m := lo + (hi-lo)/2
		if gridUr(t, m) <= v {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// TestZipfThresholdNeighbours forces the first draw onto both sides of
// every table threshold — each bucket and test-1 bound, the edges of its
// verbatim margin, and each test-2 threshold — and onto the extreme draws
// (0, whose ur is the top bucket bound itself, and the largest below 1),
// and compares the variate with math/rand's. The draw nearest a threshold
// is found by bisecting the 2^-53 grid of Float64 values; Int63 value
// n<<10 yields exactly Float64 n/2^53.
func TestZipfThresholdNeighbours(t *testing.T) {
	shapes := append(hotShapes(),
		zipfShape{1.01, 40}, zipfShape{1.3, 0}, zipfShape{2.5, 300}, zipfShape{4, 1000})
	for _, sh := range shapes {
		tab := buildZipfTable(sh.q, sh.imax)
		var thresholds []float64
		for _, b := range tab.bounds {
			m := tab.marginAt(b)
			thresholds = append(thresholds, b, b-m, b+m)
		}
		thresholds = append(thresholds, tab.t2...)
		thresholds = append(thresholds, tab.hxm, tab.hxm+tab.hx0minusHxm)
		for _, v := range thresholds {
			c := crossing(tab, v)
			for n := c - 2; n <= c+1; n++ {
				if n < 0 || n >= 1<<53 {
					continue
				}
				compareDraws(t, tab, sh.q, sh.imax, func() rand.Source {
					return &scriptSource{prefix: []int64{n << 10}, rest: rand.NewSource(n)}
				}, 3)
			}
		}
	}
}

// TestZipfTableShared pins that a shape's table is built once per process,
// also when generators for it are built on several goroutines at once, as
// runner workers do.
func TestZipfTableShared(t *testing.T) {
	const workers = 8
	got := make([]*zipfTable, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			newZipf(1.7, uint64(200+i)) // a shape of its own
			got[i] = newZipf(1.45, 127)
			got[i].draw(rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()
	for i, tab := range got {
		if tab != got[0] {
			t.Errorf("worker %d got a second table for the same shape", i)
		}
	}
}

func TestZipfDrawAllocFree(t *testing.T) {
	tab := newZipf(1.45, 127)
	rng := rand.New(rand.NewSource(1))
	if got := testing.AllocsPerRun(1000, func() { tab.draw(rng) }); got != 0 {
		t.Errorf("Zipf draw allocates %.0f objects, want 0", got)
	}
}

// FuzzZipfMatchesMathRand compares draws with math/rand's for exponents
// in (1, 4], imax in [0, 2^16] and any seed.
func FuzzZipfMatchesMathRand(f *testing.F) {
	f.Add(1.45, uint32(127), int64(1))
	f.Add(1.6, uint32(63), int64(2))
	f.Add(1.0001, uint32(1<<16), int64(3))
	f.Add(4.0, uint32(0), int64(4))
	f.Fuzz(func(t *testing.T, q float64, imax uint32, seed int64) {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			t.Skip()
		}
		if !(q > 1 && q <= 4) {
			q = 1 + math.Abs(math.Mod(q, 3)) // fold into (1, 4]
			if q <= 1 {
				q = 4
			}
		}
		im := uint64(imax) % (1<<16 + 1)
		compareDraws(t, buildZipfTable(q, im), q, im,
			func() rand.Source { return rand.NewSource(seed) }, 2000)
	})
}
