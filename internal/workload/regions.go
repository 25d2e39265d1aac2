package workload

import "math/rand"

// RegionKind classifies a data region's access pattern.
type RegionKind uint8

// Region kinds. Each models a locality class that dominates some of the
// Spec2000 applications the paper evaluates.
const (
	// Stream walks sequentially through a buffer in 8-byte steps
	// (compression input/output buffers; excellent spatial locality).
	Stream RegionKind = iota + 1
	// Strided walks with a large fixed stride (row/column sweeps; poor
	// spatial locality, conflict-prone).
	Strided
	// Chase follows a random permutation cycle over cache blocks
	// (pointer-chasing; near-zero locality, serialized loads — the mcf
	// pattern).
	Chase
	// Hot draws blocks from a Zipf distribution (a small set of hot
	// structures absorbs most references — the pattern that makes ICR
	// work: hot data replicates itself).
	Hot
	// Stack accesses a small frame region around a slowly moving stack
	// pointer (very high locality).
	Stack
	// Spill models written-then-reread temporaries over a region larger
	// than the cache: stores advance a write cursor and loads trail it by
	// a lag that exceeds the cache capacity, so spilled blocks are
	// written, evicted, and then re-read. This is the access pattern that
	// makes leftover replicas valuable on primary misses (§5.6).
	Spill
)

// String returns the kind name.
func (k RegionKind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Strided:
		return "strided"
	case Chase:
		return "chase"
	case Hot:
		return "hot"
	case Stack:
		return "stack"
	case Spill:
		return "spill"
	default:
		return "unknown"
	}
}

// RegionSpec declares one data region of a benchmark profile.
type RegionSpec struct {
	Kind RegionKind
	// Weight is the relative probability a memory reference targets this
	// region.
	Weight float64
	// Size is the region's extent in bytes.
	Size uint64
	// Stride is the step for Strided regions (bytes).
	Stride uint64
	// ZipfS is the Zipf skew for Hot regions (must be > 1; larger =
	// hotter).
	ZipfS float64
	// SetSpread, for Hot regions, concentrates the region's blocks into
	// this many consecutive cache sets of a 64-set dL1 (0 = natural
	// layout). Real data structures often map unevenly onto sets; the
	// resulting conflict misses are what leftover replicas — placed
	// N/2 sets away, in colder sets — can serve (§5.6).
	SetSpread int
}

// region is the runtime state of a RegionSpec.
type region struct {
	spec RegionSpec
	base uint64
	pos  uint64
	// perm is the pointer-chase successor permutation over blocks.
	perm []uint32
	// zipf draws a Hot region's block index; blockAddr maps it to the
	// block's address (see Layout for the SetSpread placement).
	zipf      *zipfTable
	blockAddr []uint64
	// lastLoadAt is the dynamic instruction index of this region's most
	// recent load, used to serialize pointer chases.
	lastLoadAt uint64
}

const blockBytes = 64

// newRegion materializes a region at the given base address.
func newRegion(spec RegionSpec, base uint64, rng *rand.Rand) *region {
	r := &region{spec: spec, base: base}
	nblk := spec.Size / blockBytes
	if nblk == 0 {
		nblk = 1
	}
	switch spec.Kind {
	case Chase:
		// A single-cycle random permutation (Sattolo's algorithm) so the
		// chase visits every block before repeating.
		r.perm = make([]uint32, nblk)
		for i := range r.perm {
			r.perm[i] = uint32(i)
		}
		for i := len(r.perm) - 1; i > 0; i-- {
			j := rng.Intn(i)
			r.perm[i], r.perm[j] = r.perm[j], r.perm[i]
		}
	case Hot:
		s := spec.ZipfS
		if s <= 1 {
			s = 1.3
		}
		r.zipf = newZipf(s, nblk-1)
		// Entry nblk covers imax+1, which math/rand's sampler returns
		// when a draw of exactly 0 rounds x up past imax+0.5 and test 1
		// accepts it.
		r.blockAddr = make([]uint64, nblk+1)
		spread := uint64(spec.SetSpread)
		for blk := range r.blockAddr {
			b := uint64(blk)
			if spread > 0 {
				// Concentrate blocks into spread consecutive sets: one
				// block per set per "layer", layers a full 64-set span
				// apart.
				r.blockAddr[blk] = base + (b%spread)*blockBytes + (b/spread)*(64*blockBytes)
			} else {
				r.blockAddr[blk] = base + b*blockBytes
			}
		}
	}
	return r
}

// wrap returns x mod m for x < 2m.
func wrap(x, m uint64) uint64 {
	if x >= m {
		x -= m
	}
	return x
}

// next produces the next address for this region. Only Spill regions
// distinguish loads from stores.
func (r *region) next(rng *rand.Rand, store bool) uint64 {
	switch r.spec.Kind {
	case Stream:
		addr := r.base + r.pos
		r.pos += 8
		if r.pos >= r.spec.Size {
			r.pos = 0
		}
		return addr
	case Strided:
		stride := r.spec.Stride
		if stride == 0 {
			stride = 256
		}
		addr := r.base + r.pos
		r.pos += stride
		if r.pos >= r.spec.Size {
			r.pos = (r.pos + 8) % stride // rotate the lane on wrap
		}
		return addr
	case Chase:
		// pos starts at 0 and only ever holds a perm entry, so it is
		// always a valid index.
		r.pos = uint64(r.perm[r.pos])
		return r.base + r.pos*blockBytes + uint64(rng.Intn(8))*8
	case Hot:
		blk := r.zipf.draw(rng)
		return r.blockAddr[blk] + uint64(rng.Intn(8))*8
	case Stack:
		// A frame pointer that drifts slowly within the region.
		drift := uint64(rng.Intn(33)) * 8
		if rng.Intn(16) == 0 {
			r.pos = (r.pos + 256) % r.spec.Size
		}
		return r.base + (r.pos+drift)%r.spec.Size
	case Spill:
		// Stores advance a write cursor; loads trail it by ~Size/2 (with
		// a little jitter), re-reading blocks long after eviction.
		if store {
			addr := r.base + r.pos
			r.pos = (r.pos + 8) % r.spec.Size
			return addr
		}
		lag := r.spec.Size/2 + uint64(rng.Intn(8))*64
		return r.base + wrap(r.pos+r.spec.Size-lag%r.spec.Size, r.spec.Size)
	default:
		return r.base
	}
}
