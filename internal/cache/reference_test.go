package cache

import (
	"math/rand"
	"testing"
)

// refCache is an executable specification of a set-associative LRU cache:
// per-set slices ordered most-recent-first. The real implementation must
// produce the identical hit/miss sequence.
type refCache struct {
	sets      int
	assoc     int
	blockBits uint
	content   [][]uint64 // per set, MRU first
}

func newRefCache(size, assoc, block int) *refCache {
	sets := size / (assoc * block)
	bits := uint(0)
	for 1<<bits < block {
		bits++
	}
	return &refCache{
		sets: sets, assoc: assoc, blockBits: bits,
		content: make([][]uint64, sets),
	}
}

func (r *refCache) access(addr uint64) (hit bool) {
	ba := addr >> r.blockBits
	set := int(ba % uint64(r.sets))
	s := r.content[set]
	for i, tag := range s {
		if tag == ba {
			// Move to front.
			copy(s[1:i+1], s[:i])
			s[0] = ba
			return true
		}
	}
	// Miss: insert at front, evict LRU if full.
	if len(s) >= r.assoc {
		s = s[:r.assoc-1]
	}
	r.content[set] = append([]uint64{ba}, s...)
	return false
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, geom := range []struct{ size, assoc, block int }{
		{16 << 10, 4, 64},
		{1 << 10, 1, 32},
		{4 << 10, 8, 64},
		{2 << 10, 2, 128},
	} {
		next := &fixedLevel{latency: 6}
		c := New(Config{
			Name: "dut", Size: geom.size, Assoc: geom.assoc, BlockSize: geom.block,
			HitLatency: 1, Next: next,
		})
		ref := newRefCache(geom.size, geom.assoc, geom.block)
		rng := rand.New(rand.NewSource(int64(geom.size)))

		var prev Stats
		for i := 0; i < 20000; i++ {
			// Mix of hot and cold addresses to exercise all transitions.
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = uint64(rng.Intn(64)) * uint64(geom.block) // hot
			} else {
				addr = uint64(rng.Intn(1 << 16))
			}
			kind := Read
			if rng.Intn(4) == 0 {
				kind = Write
			}
			lat := c.Access(uint64(i), addr, kind)
			wantHit := ref.access(addr)
			gotHit := lat == 1
			if kind == Write {
				// Write-back writes are hits when no new miss was counted.
				s := c.Stats()
				gotHit = s.WriteMisses == prev.WriteMisses
			}
			if gotHit != wantHit {
				t.Fatalf("geom %+v op %d addr %#x: dut hit=%v, reference hit=%v",
					geom, i, addr, gotHit, wantHit)
			}
			prev = c.Stats()
		}
	}
}
