package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/energy"
	"repro/internal/fault"
)

// Cache is the ICR L1 data cache.
type Cache struct {
	cfg Config //icrvet:persistent construction input: the pool shape fingerprints Scheme and Repl wholesale
	arr *LineArray

	// Runtime-tunable knobs (see tune.go): initialized from cfg by
	// initTune at New and Reset, changed only through Retune. Every hot-
	// path read of a tunable knob goes through these, never through cfg,
	// so a retuned cache and a freshly built one execute identical code.
	cur TuneState

	stats    Stats
	energy   energy.Counts // L1-side array accesses and parity/ECC computations
	storeSeq uint64        // deterministic store-value generator state

	// Scratch buffers reused across accesses so the hot path allocates
	// nothing. replScratch backs findReplicas and replicasOf results
	// (valid until the next call of either); usedSets backs replicate's
	// used-set list. Neither ever reaches a Report: they carry only
	// intra-access state.
	replScratch []*Line
	usedSets    []int

	scrubPos int
	scrub    ScrubStats

	// Cross-tier replication state (see crosstier.go). crossBuf is the
	// 8-byte landing zone for far-tier repair words, embedded so the
	// recovery path stays allocation-free.
	cross    CrossStats
	crossBuf [8]byte
}

// New builds an ICR cache. It panics on invalid geometry (programming
// error).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if cfg.Next == nil || cfg.Mem == nil {
		panic("core: Next level and Mem are required")
	}
	if cfg.WritePolicy == cache.WriteThrough && cfg.Scheme.HasReplication() {
		// The paper's write-through point (§5.8) is a *baseline*: ICR's
		// replicas are maintained on the write-back path, and combining
		// the two would silently skip store-time replication.
		panic("core: replication requires a write-back dL1")
	}
	c := &Cache{
		cfg: cfg,
		arr: NewLineArray(cfg.Size, cfg.Assoc, cfg.BlockSize, cfg.Scheme.Protection, cfg.Repl.DecayWindow),
	}
	c.arr.predict = c
	c.initTune()
	// The distances, normalized modulo the set count and deduplicated
	// (order preserved), become the dL1's candidate sets: the walk for any
	// block is home+d for each d, with no per-access dedup.
	sets := c.arr.Sets()
	var dists []int
	for _, d := range cfg.Repl.Distances {
		nd := d % sets
		if nd < 0 {
			nd += sets
		}
		dup := false
		for _, prev := range dists {
			if prev == nd {
				dup = true
				break
			}
		}
		if !dup {
			dists = append(dists, nd)
		}
	}
	if cfg.Scheme.HasReplication() {
		c.arr.setCandidates(dists)
	}
	c.replScratch = make([]*Line, 0, len(c.arr.dists)*cfg.Assoc)
	c.usedSets = make([]int, 0, len(c.arr.dists))
	return c
}

// Scheme returns the configured scheme.
func (c *Cache) Scheme() Scheme { return c.cfg.Scheme }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.InjectedFlips, s.InjectedIntoInvalid = c.arr.Injected()
	return s
}

// EnergyCounts returns the L1-side energy events: array accesses,
// r-cache probes and deposits, and parity/ECC computations.
func (c *Cache) EnergyCounts() energy.Counts { return c.energy }

// dead reports whether the line is predicted dead at cycle now: never
// when nothing recycles dead lines, after four times the line's observed
// inter-access gap under Adaptive decay, and by the array's fixed window
// otherwise.
func (c *Cache) dead(ln *Line, now uint64) bool {
	if !c.cfg.Scheme.HasReplication() && !c.cfg.PrefetchIntoDead {
		return false
	}
	if c.cfg.Repl.Decay == Adaptive {
		gap := ln.avgGap
		if gap < 32 {
			gap = 32 // floor: back-to-back accesses are not a 0-cycle habit
		}
		return now-ln.lastAccess > 4*gap
	}
	return c.arr.dead(ln, now)
}

// setVuln opens or closes a line's vulnerability interval.
func (c *Cache) setVuln(ln *Line, now uint64, vuln bool) {
	if ln.vuln == vuln {
		return
	}
	if ln.vuln {
		c.stats.VulnerableLineCycles += now - ln.vulnSince
	} else {
		ln.vulnSince = now
	}
	ln.vuln = vuln
}

// revalVuln recomputes a primary line's vulnerability state: dirty data
// protected only by parity, with no replica standing behind it. (The
// separate r-cache is deliberately not counted: its duplicates can vanish
// silently, so they do not constitute a guarantee.)
func (c *Cache) revalVuln(ln *Line, now uint64) {
	if ln == nil || !ln.Valid || ln.Replica {
		return
	}
	vuln := ln.Dirty &&
		c.cfg.Scheme.Protection != ECCProt &&
		!c.arr.hasLinked(ln)
	c.setVuln(ln, now, vuln)
}

// FinishVulnerability closes all open vulnerability intervals at the end
// of a run; call once before reading Stats.
func (c *Cache) FinishVulnerability(now uint64) {
	for i := range c.arr.Lines {
		ln := &c.arr.Lines[i]
		if ln.Valid && !ln.Replica {
			c.setVuln(ln, now, false)
		}
	}
}

// touch refreshes LRU and decay state for an accessed line.
func (c *Cache) touch(ln *Line, now uint64) {
	c.arr.Touch(ln, now)
	if c.cfg.Repl.Decay == Adaptive {
		if gap := now - ln.lastAccess; gap > 0 && ln.lastAccess > 0 {
			// EWMA with 1/4 weight on the newest observation.
			ln.avgGap = (3*ln.avgGap + gap) / 4
		}
	}
	ln.lastAccess = now
}

// candidateSet returns the i-th set where replicas of a block may live, in
// attempt order. The distance list was normalized and deduplicated at New,
// so home+d needs at most one wrap.
func (c *Cache) candidateSet(blockAddr uint64, i int) int {
	return c.arr.SetAt(blockAddr, c.arr.dists[i])
}

// findReplicas returns every resident replica of a block by a tag scan of
// the candidate sets the placement policy could have used (this mirrors
// the bounded parallel lookup real hardware would perform). It serves the
// miss paths, which have no primary to follow links from.
//
// The returned slice is backed by c.replScratch and is valid only until
// the next findReplicas or replicasOf call on this cache; callers that
// need a fact about the replicas across a nested call must capture it
// (e.g. the length) first. LineArray.anyReplica is the clobber-free
// alternative for yes/no questions.
func (c *Cache) findReplicas(blockAddr uint64) []*Line {
	c.replScratch = c.arr.scanReplicas(blockAddr, c.replScratch[:0])
	return c.replScratch
}

// replicasOf returns the replicas of a resident primary by its links: the
// same lines, in the same order, as findReplicas(p.BlockAddr), without
// the scan. The result shares findReplicas's scratch buffer.
func (c *Cache) replicasOf(p *Line) []*Line {
	c.replScratch = c.arr.linked(p, c.replScratch[:0])
	return c.replScratch
}

// ---------------------------------------------------------------------------
// Content helpers
// ---------------------------------------------------------------------------

// fill installs block content into a line from architectural memory.
func (c *Cache) fill(ln *Line, blockAddr uint64, now uint64) {
	c.arr.Fill(ln, blockAddr, c.cfg.Mem.PeekBlock(blockAddr))
	c.touch(ln, now)
	c.energy.L1Writes++
}

// storeValue produces the deterministic value written by the n-th store.
func storeValue(addr, seq uint64) uint64 {
	x := addr ^ (seq * 0x9e3779b97f4a7c15)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// writeWord writes an 8-byte value into a line at the word containing addr
// and refreshes that word's check bits.
func (c *Cache) writeWord(ln *Line, addr uint64, value uint64) {
	off := int(addr) & (c.cfg.BlockSize - 1)
	ecc.PutWord64(ln.Data, off, value)
	ln.RecodeWord(off)
	c.energy.L1WordWrites++
	c.energy.ParityOps++
	if ln.ECC != nil {
		c.energy.ECCOps++
	}
}

// writeback flushes a dirty line's content to the architectural memory and
// charges the next-level write. Corruption that the line's own codes could
// have caught is counted as a silent writeback (it propagates to L2
// undetected, the hazard §3.1 describes for parity-protected dirty data).
func (c *Cache) writeback(ln *Line, now uint64) {
	c.setVuln(ln, now, false)
	c.stats.Writebacks++
	if ecc.CheckParityLineRange(ln.Data, ln.Parity, 0, c.cfg.BlockSize) != ecc.OK {
		c.stats.SilentWritebacks++
	}
	c.cfg.Mem.WriteBlock(ln.BlockAddr, ln.Data)
	c.cfg.Next.Access(now, c.arr.Addr(ln.BlockAddr), cache.Write)
}

// invalidateReplicas drops every replica of a primary (used when the
// primary is evicted and LeaveReplicas is off).
func (c *Cache) invalidateReplicas(p *Line) {
	for _, rep := range c.replicasOf(p) {
		c.arr.Invalidate(rep)
		c.stats.ReplicaEvictions++
	}
}

// evictFor frees the LRU way of a set for a new primary copy. Placement of
// primaries uses normal LRU "regardless of whether it is a dead, replica or
// another primary block" (§3.1).
func (c *Cache) evictFor(set int, now uint64) *Line {
	v := c.arr.LRUWay(set)
	c.evict(v, now)
	return v
}

// evict drops a line if it is resident. A replica is counted, and its
// mirrored primary may have just lost its protection. A primary is
// written back if dirty, closes its vulnerability interval, counts as an
// unused prefetch if no demand access reached it, and takes its replicas
// with it unless LeaveReplicas is set.
func (c *Cache) evict(v *Line, now uint64) {
	if !v.Valid {
		return
	}
	if v.Replica {
		// The back link names the primary whose protection counted v. A
		// guest outside its block's candidate sets has none, and its
		// block's primary never counted it.
		c.stats.ReplicaEvictions++
		p := c.arr.linkedPrimary(v)
		c.arr.Invalidate(v)
		c.revalVuln(p, now)
		return
	}
	if v.prefetched {
		c.stats.PrefetchUnused++
	}
	if v.Dirty {
		c.writeback(v, now)
	}
	c.setVuln(v, now, false)
	if !c.cfg.Repl.LeaveReplicas {
		c.invalidateReplicas(v)
	}
	c.arr.Invalidate(v)
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

// Inject applies one injection event from the given injector to the data
// array (see LineArray.Inject).
func (c *Cache) Inject(in *fault.Injector) { c.arr.Inject(in) }

// ---------------------------------------------------------------------------
// Debug / test introspection
// ---------------------------------------------------------------------------

// CorruptPrimary flips the given bit (0..7 within each byte) of the byte at
// addr in the block's resident primary copy. It returns false if the block
// has no primary copy. Intended for tests and demonstrations that need a
// deterministic error rather than a randomly injected one.
func (c *Cache) CorruptPrimary(addr uint64, bit uint) bool {
	ln := c.arr.Primary(c.arr.BlockAddr(addr))
	if ln == nil {
		return false
	}
	ln.Data[int(addr)&(c.cfg.BlockSize-1)] ^= 1 << (bit % 8)
	return true
}

// CorruptReplica flips the given bit of the byte at addr in the block's
// i-th resident replica. It returns false if no such replica exists.
func (c *Cache) CorruptReplica(addr uint64, i int, bit uint) bool {
	reps := c.findReplicas(c.arr.BlockAddr(addr))
	if i < 0 || i >= len(reps) {
		return false
	}
	reps[i].Data[int(addr)&(c.cfg.BlockSize-1)] ^= 1 << (bit % 8)
	return true
}

// PrimaryDirty reports whether the block containing addr has a dirty
// resident primary copy.
func (c *Cache) PrimaryDirty(addr uint64) bool {
	ln := c.arr.Primary(c.arr.BlockAddr(addr))
	return ln != nil && ln.Dirty
}

// ReadWord returns the stored (possibly corrupted) 64-bit word containing
// addr from the primary copy, without updating any cache state.
func (c *Cache) ReadWord(addr uint64) (uint64, bool) {
	ln := c.arr.Primary(c.arr.BlockAddr(addr))
	if ln == nil {
		return 0, false
	}
	return ecc.Word64(ln.Data, int(addr)&(c.cfg.BlockSize-1)), true
}

// HasPrimary reports whether the block containing addr has a resident
// primary copy.
func (c *Cache) HasPrimary(addr uint64) bool {
	return c.arr.Primary(c.arr.BlockAddr(addr)) != nil
}

// WouldHit reports whether a load of addr would be served without a miss:
// a resident primary, or (in §5.6 performance mode) a leftover replica.
// It changes no state; the core uses it to gate loads on MSHR capacity.
func (c *Cache) WouldHit(addr uint64) bool {
	ba := c.arr.BlockAddr(addr)
	if c.arr.Primary(ba) != nil {
		return true
	}
	return c.cfg.Repl.LeaveReplicas && c.arr.anyReplica(ba)
}

// ReplicaCount returns the number of resident replicas for the block
// containing addr.
func (c *Cache) ReplicaCount(addr uint64) int {
	return len(c.findReplicas(c.arr.BlockAddr(addr)))
}

// CheckInvariants validates internal consistency and returns an error
// describing the first violation found. It is exercised by tests and
// property checks:
//
//  1. at most one primary copy of any block, and it lives in its home set;
//  2. every replica belongs to a scheme with replication enabled;
//  3. a guest line is a replica, and a primary carries no guest bit;
//  4. a replica carries no prefetched or spilled bit;
//  5. check bits lengths match the geometry;
//  6. the array's tag words and replica links agree with its lines
//     (LineArray.CheckInvariants).
func (c *Cache) CheckInvariants() error {
	if err := c.arr.CheckInvariants(); err != nil {
		return err
	}
	for i := range c.arr.Lines {
		ln := &c.arr.Lines[i]
		if !ln.Valid {
			continue
		}
		set := i / c.cfg.Assoc
		if ln.Guest && !ln.Replica {
			return fmt.Errorf("primary of block %#x carries the guest bit (line %d)", ln.BlockAddr, i)
		}
		if ln.Replica {
			if !c.cfg.Scheme.HasReplication() {
				return fmt.Errorf("replica present in non-replicating scheme (line %d)", i)
			}
			if ln.prefetched || ln.Spilled {
				return fmt.Errorf("replica of block %#x carries a prefetched or spilled bit (line %d)", ln.BlockAddr, i)
			}
		} else {
			if got := c.arr.HomeSet(ln.BlockAddr); got != set {
				return fmt.Errorf("primary of block %#x in set %d, home is %d", ln.BlockAddr, set, got)
			}
			// A duplicate primary must share the home set, so scanning the
			// earlier ways of this set finds it without a map.
			for j := set * c.cfg.Assoc; j < i; j++ {
				dup := &c.arr.Lines[j]
				if dup.Valid && !dup.Replica && dup.BlockAddr == ln.BlockAddr {
					return fmt.Errorf("duplicate primary for block %#x", ln.BlockAddr)
				}
			}
		}
		if len(ln.Data) != c.cfg.BlockSize || len(ln.Parity) != ecc.ParityBytesPerLine(c.cfg.BlockSize) {
			return fmt.Errorf("line %d: bad payload geometry", i)
		}
	}
	return nil
}

// Reset restores the cache to its post-construction state — every line
// invalid (LineArray.Reset), counters and scrub state cleared. Attached
// components (write buffer, duplicate cache) have their own Reset
// methods; the caller resets them alongside.
func (c *Cache) Reset() {
	c.arr.Reset()
	c.initTune()
	c.stats = Stats{}
	c.energy = energy.Counts{}
	c.storeSeq = 0
	c.replScratch = c.replScratch[:0]
	c.usedSets = c.usedSets[:0]
	c.scrubPos = 0
	c.scrub = ScrubStats{}
	c.cross = CrossStats{}
	c.crossBuf = [8]byte{}
}
