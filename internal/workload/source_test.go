package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand draws 1M values per seed, interleaving every
// way the generator reads its state — rand.Rand's Int63, Float64, Intn
// and Shuffle over the source, and the source's own Int63 and float — and
// requires each to equal what math/rand's seeded source gives.
func TestSourceMatchesMathRand(t *testing.T) {
	const n = 1_000_000
	for _, seed := range []int64{0, -7, 1 ^ 0x5eed, 2 ^ 0x5eed, math.MaxInt64, math.MinInt64} {
		var s source
		s.Seed(seed)
		ours, theirs := rand.New(&s), rand.New(rand.NewSource(seed))
		var a, b [10]int
		for i := 0; i < n; i++ {
			var got, want float64
			switch i % 6 {
			case 0:
				got, want = float64(ours.Int63()), float64(theirs.Int63())
			case 1:
				got, want = ours.Float64(), theirs.Float64()
			case 2:
				got, want = float64(ours.Intn(33)), float64(theirs.Intn(33))
			case 3:
				for j := range a {
					a[j], b[j] = j, j
				}
				ours.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
				theirs.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				if a != b {
					t.Fatalf("seed %d draw %d: Shuffle gave %v, math/rand %v", seed, i, a, b)
				}
			case 4:
				got, want = float64(s.Int63()), float64(theirs.Int63())
			case 5:
				got, want = float64(s.float())/(1<<63), theirs.Float64()
			}
			if got != want {
				t.Fatalf("seed %d draw %d (kind %d): got %v, math/rand %v", seed, i, i%6, got, want)
			}
		}
	}
}

// toFloat is rand.Float64's value for the Int63 draw x.
func toFloat(x uint64) float64 { return float64(x) / (1 << 63) }

// checkCut requires the threshold cut to split the Int63 values exactly
// where the Float64 test it replaces does: for Float64() < p (gt false)
// x = cut−1 passes and x = cut fails, and for Float64() > p (gt true) the
// reverse. For p in (0, 1) the cut lies in [1, redrawBound].
func checkCut(t *testing.T, name string, cut uint64, p float64, gt bool) {
	t.Helper()
	pass := func(x uint64) bool {
		if gt {
			return toFloat(x) > p
		}
		return toFloat(x) < p
	}
	if cut < 1 || cut > redrawBound {
		t.Fatalf("%s: threshold %d for p=%v lies outside [1, redrawBound]", name, cut, p)
	}
	if pass(cut-1) == gt || (cut < redrawBound && pass(cut) != gt) {
		t.Errorf("%s: threshold %d for p=%v: x−1 gives %v (%v), x gives %v (%v)",
			name, cut, p, toFloat(cut-1), pass(cut-1), toFloat(cut), pass(cut))
	}
}

// TestThresholdNeighbours checks every threshold a profile's generator
// uses, each cond-branch bias among them, and the redraw bound: the Int63
// values either side of each must fall on the side of the Float64 test
// that the threshold documents.
func TestThresholdNeighbours(t *testing.T) {
	if toFloat(redrawBound-1) >= 1 || toFloat(redrawBound) != 1 {
		t.Errorf("redrawBound %d: x−1 gives %v, x gives %v; want below 1, then 1",
			uint64(redrawBound), toFloat(redrawBound-1), toFloat(redrawBound))
	}
	// A draw at the bound is redrawn, as rand.Float64 redraws it: with the
	// next two outputs scripted to redrawBound and then 5, float gives 5.
	var s source
	s.Seed(1)
	clear(s.vec[:])
	s.vec[(s.feed+srcLen-1)%srcLen] = redrawBound
	s.vec[(s.feed+srcLen-2)%srcLen] = 5
	if got := s.float(); got != 5 {
		t.Errorf("float after a draw at the redraw bound = %d, want the next draw, 5", got)
	}

	for _, p := range goldenProfiles() {
		g := MustNew(p, 1)
		lup := p.LoadUseProb
		if lup == 0 {
			lup = 0.55
		}
		c := g.cuts
		checkCut(t, p.Name+" noDep", c.noDep, 0.15, false)
		checkCut(t, p.Name+" depMore", c.depMore, p.DepGeomP, true)
		checkCut(t, p.Name+" src2", c.src2, 0.4, false)
		checkCut(t, p.Name+" loadUse", c.loadUse, lup, false)
		checkCut(t, p.Name+" use2", c.use2, 0.35, false)
		checkCut(t, p.Name+" chain", c.chain, 0.55, false)
		biases := map[uint64]bool{}
		for _, b := range p.CondBias {
			checkCut(t, p.Name+" bias", lessThan(b), b, false)
			biases[lessThan(b)] = true
		}
		conds := 0
		for _, blk := range g.blocks {
			if blk.kind == condKind {
				conds++
				if !biases[blk.taken] {
					t.Errorf("%s: a cond block's threshold %d is no CondBias value's", p.Name, blk.taken)
				}
			}
		}
		if conds == 0 {
			t.Errorf("%s: no cond blocks, so no bias threshold was checked", p.Name)
		}
	}
}

// FuzzThreshold checks lessThan and atMost for any p in (0, 1): their
// neighbours, and 1000 draws each compared with rand.Float64's test on an
// identically seeded source.
func FuzzThreshold(f *testing.F) {
	for _, p := range []float64{0.15, 0.4, 0.55, 0.9, 1e-300, math.Nextafter(1, 0), 0.5} {
		f.Add(p, int64(1))
	}
	f.Fuzz(func(t *testing.T, p float64, seed int64) {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Skip()
		}
		if p = math.Abs(math.Mod(p, 1)); p == 0 {
			t.Skip()
		}
		lt, gt := lessThan(p), atMost(p)
		checkCut(t, "lessThan", lt, p, false)
		checkCut(t, "atMost", gt, p, true)
		var s source
		s.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			x, r := s.float(), ref.Float64()
			if (x < lt) != (r < p) || (x >= gt) != (r > p) {
				t.Fatalf("draw %d: Float64 %v against p=%v disagrees with Int63 %d against %d and %d", i, r, p, x, lt, gt)
			}
		}
	})
}
