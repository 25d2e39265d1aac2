package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/ecc"
	"repro/internal/fault"
)

// line is one physical cache line. In addition to the usual tag state, a
// line carries the paper's extra metadata: a replica bit (1 bit per line,
// §5.1) and a decay counter (2 bits per line, §2), plus real data bytes and
// real check bits.
type line struct {
	valid   bool
	replica bool
	// guest marks a replica hosted on behalf of the far tier (two-tier
	// ICR): only guest lines serve cross-tier repairs or are dropped by
	// the far tier's DropReplica.
	guest bool
	dirty bool
	// blockAddr is the full block address (addr >> offsetBits). Replicas
	// store the address of the block they mirror; because a replica may
	// live in a set the address does not map to, lookups must match the
	// full block address plus the replica bit.
	blockAddr uint64
	// lastTick is the decay tick of the most recent access (the lazy
	// equivalent of a 2-bit saturating counter reset on access and
	// incremented every tick; the line is dead when now's tick is at
	// least 4 beyond lastTick).
	lastTick uint64
	lru      uint64

	data   []byte // BlockSize bytes of real payload
	parity []byte // 1 bit per data byte, packed
	eccb   []byte // 1 SEC-DED byte per 64-bit word (ECC schemes only)

	// Vulnerability tracking: a line is vulnerable while it holds dirty
	// data whose only protection is parity (no SEC-DED, no replica).
	vuln      bool
	vulnSince uint64

	// Adaptive dead-block prediction (timekeeping-style): EWMA of the
	// line's inter-access gap and the cycle of its last access.
	lastAccess uint64
	avgGap     uint64

	// prefetched marks a line brought in by the next-block prefetcher and
	// not yet demanded.
	prefetched bool

	// idx is the line's fixed position in Cache.lines (set once at New),
	// so set/way arithmetic never needs a search.
	idx int
}

// Cache is the ICR L1 data cache.
type Cache struct {
	cfg        Config //icrvet:persistent construction input: the pool shape fingerprints Scheme and Repl wholesale
	sets       int    //icrvet:persistent geometry: derived from cfg at construction
	offsetBits uint   //icrvet:persistent geometry: derived from cfg at construction
	indexMask  uint64 //icrvet:persistent geometry: derived from cfg at construction
	lines      []line
	clock      uint64 // LRU clock

	// Runtime-tunable knobs (see tune.go): initialized from cfg by
	// initTune at New and Reset, changed only through Retune. Every hot-
	// path read of a tunable knob goes through these, never through cfg,
	// so a retuned cache and a freshly built one execute identical code.
	cur        TuneState
	tickPeriod uint64 // decay tick length in cycles derived from cur.DecayWindow (0 => window 0)

	stats    Stats
	storeSeq uint64 // deterministic store-value generator state
	lastWord int    // word index of the most recent access (fault targeting)

	wordsPerLine int //icrvet:persistent geometry: derived from cfg at construction

	// replDistances is cfg.Repl.Distances normalized modulo the set count
	// and deduplicated (order preserved): the candidate-set walk for any
	// block is home+d for each d, with no per-access slice or dedup pass.
	replDistances []int //icrvet:persistent derived from cfg.Repl at construction, part of the pool shape

	// Scratch buffers reused across accesses so the hot path allocates
	// nothing. replScratch backs findReplicas results (valid until the
	// next findReplicas call); usedSets backs replicate's used-set list.
	// Neither ever reaches a Report: they carry only intra-access state.
	replScratch []*line
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
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic("core: size, assoc, and block size must be positive")
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 || cfg.BlockSize%8 != 0 {
		panic("core: block size must be a power of two and a multiple of 8")
	}
	if cfg.Size%(cfg.Assoc*cfg.BlockSize) != 0 {
		panic("core: size must be a multiple of assoc*blockSize")
	}
	sets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if sets&(sets-1) != 0 {
		panic("core: set count must be a power of two")
	}
	if cfg.Next == nil || cfg.Mem == nil {
		panic("core: Next level and Mem are required")
	}
	if cfg.WritePolicy == cache.WriteThrough && cfg.Scheme.HasReplication() {
		// The paper's write-through point (§5.8) is a *baseline*: ICR's
		// replicas are maintained on the write-back path, and combining
		// the two would silently skip store-time replication.
		panic("core: replication requires a write-back dL1")
	}
	offsetBits := uint(0)
	for 1<<offsetBits < cfg.BlockSize {
		offsetBits++
	}
	c := &Cache{
		cfg:          cfg,
		sets:         sets,
		offsetBits:   offsetBits,
		indexMask:    uint64(sets) - 1,
		lines:        make([]line, sets*cfg.Assoc),
		lastWord:     -1,
		wordsPerLine: cfg.BlockSize / 8,
	}
	c.initTune()
	parityLen := ecc.ParityBytesPerLine(cfg.BlockSize)
	eccLen := 0
	if cfg.Scheme.Protection == ECCProt {
		eccLen = ecc.SECDEDBytesPerLine(cfg.BlockSize)
	}
	for i := range c.lines {
		c.lines[i].idx = i
		c.lines[i].data = make([]byte, cfg.BlockSize)
		c.lines[i].parity = make([]byte, parityLen)
		if eccLen > 0 {
			c.lines[i].eccb = make([]byte, eccLen)
		}
	}
	for _, d := range cfg.Repl.Distances {
		nd := d % sets
		if nd < 0 {
			nd += sets
		}
		dup := false
		for _, prev := range c.replDistances {
			if prev == nd {
				dup = true
				break
			}
		}
		if !dup {
			c.replDistances = append(c.replDistances, nd)
		}
	}
	c.replScratch = make([]*line, 0, len(c.replDistances)*cfg.Assoc)
	c.usedSets = make([]int, 0, len(c.replDistances))
	return c
}

// Scheme returns the configured scheme.
func (c *Cache) Scheme() Scheme { return c.cfg.Scheme }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.offsetBits }
func (c *Cache) homeSet(blockAddr uint64) int { return int(blockAddr & c.indexMask) }

// tick converts a cycle count into a decay tick index.
func (c *Cache) tick(now uint64) uint64 {
	if c.tickPeriod == 0 {
		return 0
	}
	return now / c.tickPeriod
}

// dead reports whether the line is predicted dead at cycle now.
//
// FixedWindow: the decay counter has saturated (with a zero window every
// line is dead the moment its access completes — §5: "the block is
// immediately pronounced dead, as soon as the access for that block is
// complete"). Adaptive: the line has been idle for four times its observed
// inter-access gap.
func (c *Cache) dead(ln *line, now uint64) bool {
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
	if c.tickPeriod == 0 {
		return true
	}
	return c.tick(now)-ln.lastTick >= 4
}

// setVuln opens or closes a line's vulnerability interval.
func (c *Cache) setVuln(ln *line, now uint64, vuln bool) {
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
func (c *Cache) revalVuln(ln *line, now uint64) {
	if ln == nil || !ln.valid || ln.replica {
		return
	}
	vuln := ln.dirty &&
		c.cfg.Scheme.Protection != ECCProt &&
		!c.hasReplica(ln.blockAddr)
	c.setVuln(ln, now, vuln)
}

// FinishVulnerability closes all open vulnerability intervals at the end
// of a run; call once before reading Stats.
func (c *Cache) FinishVulnerability(now uint64) {
	for i := range c.lines {
		ln := &c.lines[i]
		if ln.valid && !ln.replica {
			c.setVuln(ln, now, false)
		}
	}
}

// touch refreshes LRU and decay state for an accessed line.
func (c *Cache) touch(ln *line, now uint64) {
	c.clock++
	ln.lru = c.clock
	ln.lastTick = c.tick(now)
	if c.cfg.Repl.Decay == Adaptive {
		if gap := now - ln.lastAccess; gap > 0 && ln.lastAccess > 0 {
			// EWMA with 1/4 weight on the newest observation.
			ln.avgGap = (3*ln.avgGap + gap) / 4
		}
	}
	ln.lastAccess = now
}

// lookupPrimary finds the primary copy of a block in its home set.
func (c *Cache) lookupPrimary(blockAddr uint64) *line {
	base := c.homeSet(blockAddr) * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		ln := &c.lines[base+w]
		if ln.valid && !ln.replica && ln.blockAddr == blockAddr {
			return ln
		}
	}
	return nil
}

// candidateSet returns the i-th set where replicas of a block may live, in
// attempt order. The distance list was normalized and deduplicated at New,
// so home+d needs at most one wrap.
func (c *Cache) candidateSet(blockAddr uint64, i int) int {
	s := c.homeSet(blockAddr) + c.replDistances[i]
	if s >= c.sets {
		s -= c.sets
	}
	return s
}

// findReplicas returns every resident replica of a block, searching the
// candidate sets the placement policy could have used (this mirrors the
// bounded parallel lookup real hardware would perform).
//
// The returned slice is backed by c.replScratch and is valid only until
// the next findReplicas call on this cache; callers that need a fact about
// the replicas across a nested call must capture it (e.g. the length)
// first. hasReplica is the clobber-free alternative for yes/no questions.
func (c *Cache) findReplicas(blockAddr uint64) []*line {
	if !c.cfg.Scheme.HasReplication() {
		return nil
	}
	out := c.replScratch[:0]
	for i := range c.replDistances {
		base := c.candidateSet(blockAddr, i) * c.cfg.Assoc
		for w := 0; w < c.cfg.Assoc; w++ {
			ln := &c.lines[base+w]
			if ln.valid && ln.replica && ln.blockAddr == blockAddr {
				out = append(out, ln)
			}
		}
	}
	c.replScratch = out
	return out
}

// hasReplica reports whether any resident replica of the block exists. It
// early-exits and never touches the shared scratch buffer, so it is safe
// inside deferred revalidation while a caller still holds a findReplicas
// result.
func (c *Cache) hasReplica(blockAddr uint64) bool {
	if !c.cfg.Scheme.HasReplication() {
		return false
	}
	for i := range c.replDistances {
		base := c.candidateSet(blockAddr, i) * c.cfg.Assoc
		for w := 0; w < c.cfg.Assoc; w++ {
			ln := &c.lines[base+w]
			if ln.valid && ln.replica && ln.blockAddr == blockAddr {
				return true
			}
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Content helpers
// ---------------------------------------------------------------------------

// recode rewrites all check bits of a line from its current data.
func (c *Cache) recode(ln *line) {
	ecc.EncodeParityLine(ln.data, ln.parity)
	if ln.eccb != nil {
		ecc.EncodeSECDEDLine(ln.data, ln.eccb)
	}
}

// recodeWord rewrites the check bits covering the aligned 64-bit word at
// byte offset off.
func (c *Cache) recodeWord(ln *line, off int) {
	w := off &^ 7
	// Parity bits for the word's 8 bytes live in parity[w/8].
	ln.parity[w/8] = ecc.EncodeParity64(ecc.Word64(ln.data, w))
	if ln.eccb != nil {
		ln.eccb[w/8] = ecc.EncodeSECDED(ecc.Word64(ln.data, off))
	}
}

// fill installs block content into a line from architectural memory.
func (c *Cache) fill(ln *line, blockAddr uint64, asReplica bool, now uint64) {
	ln.valid = true
	ln.replica = asReplica
	ln.guest = false
	ln.dirty = false
	ln.prefetched = false
	ln.blockAddr = blockAddr
	copy(ln.data, c.cfg.Mem.PeekBlock(blockAddr))
	c.recode(ln)
	c.touch(ln, now)
	if c.cfg.Meter != nil {
		c.cfg.Meter.AddL1Write(1)
	}
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
func (c *Cache) writeWord(ln *line, addr uint64, value uint64) {
	off := int(addr) & (c.cfg.BlockSize - 1)
	ecc.PutWord64(ln.data, off, value)
	c.recodeWord(ln, off)
	if c.cfg.Meter != nil {
		c.cfg.Meter.AddL1WordWrite(1)
		c.cfg.Meter.AddParity(1)
		if ln.eccb != nil {
			c.cfg.Meter.AddECC(1)
		}
	}
}

// writeback flushes a dirty line's content to the architectural memory and
// charges the next-level write. Corruption that the line's own codes could
// have caught is counted as a silent writeback (it propagates to L2
// undetected, the hazard §3.1 describes for parity-protected dirty data).
func (c *Cache) writeback(ln *line, now uint64) {
	c.setVuln(ln, now, false)
	c.stats.Writebacks++
	if ecc.CheckParityLineRange(ln.data, ln.parity, 0, c.cfg.BlockSize) != ecc.OK {
		c.stats.SilentWritebacks++
	}
	c.cfg.Mem.WriteBlock(ln.blockAddr, ln.data)
	c.cfg.Next.Access(now, ln.blockAddr<<c.offsetBits, cache.Write)
}

// invalidateReplicas drops every replica of a block (used when the primary
// is evicted and LeaveReplicas is off).
func (c *Cache) invalidateReplicas(blockAddr uint64) {
	for _, rep := range c.findReplicas(blockAddr) {
		rep.valid = false
		c.stats.ReplicaEvictions++
	}
}

// evictFor frees the LRU way of a set for a new primary copy. Placement of
// primaries uses normal LRU "regardless of whether it is a dead, replica or
// another primary block" (§3.1).
func (c *Cache) evictFor(set int, now uint64) *line {
	base := set * c.cfg.Assoc
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		ln := &c.lines[base+w]
		if !ln.valid {
			victim = base + w
			break
		}
		if ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	v := &c.lines[victim]
	if v.valid {
		if v.replica {
			c.stats.ReplicaEvictions++
			// The mirrored primary may have just lost its protection.
			defer c.revalVuln(c.lookupPrimary(v.blockAddr), now)
		} else {
			if v.prefetched {
				c.stats.PrefetchUnused++
			}
			if v.dirty {
				c.writeback(v, now)
			}
			c.setVuln(v, now, false)
			if c.cfg.Scheme.HasReplication() && !c.cfg.Repl.LeaveReplicas {
				c.invalidateReplicas(v.blockAddr)
			}
		}
		v.valid = false
	}
	return v
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

// WordCount returns the total number of 64-bit words in the data array
// (valid or not); the injector draws word indices from this space.
func (c *Cache) WordCount() int { return len(c.lines) * c.wordsPerLine }

// Inject applies one injection event from the given injector. Flips landing
// in invalid lines are counted but have no architectural effect (there is
// no data there to corrupt), matching injection into a physical array.
func (c *Cache) Inject(in *fault.Injector) {
	flips := in.Flips(c.WordCount(), c.lastWord)
	for _, f := range flips {
		li := f.Word / c.wordsPerLine
		ln := &c.lines[li]
		if !ln.valid {
			c.stats.InjectedIntoInvalid++
			continue
		}
		off := (f.Word % c.wordsPerLine) * 8
		ln.data[off+f.Bit/8] ^= 1 << uint(f.Bit%8)
		c.stats.InjectedFlips++
	}
}

// ---------------------------------------------------------------------------
// Debug / test introspection
// ---------------------------------------------------------------------------

// CorruptPrimary flips the given bit (0..7 within each byte) of the byte at
// addr in the block's resident primary copy. It returns false if the block
// has no primary copy. Intended for tests and demonstrations that need a
// deterministic error rather than a randomly injected one.
func (c *Cache) CorruptPrimary(addr uint64, bit uint) bool {
	ln := c.lookupPrimary(c.blockAddr(addr))
	if ln == nil {
		return false
	}
	ln.data[int(addr)&(c.cfg.BlockSize-1)] ^= 1 << (bit % 8)
	return true
}

// CorruptReplica flips the given bit of the byte at addr in the block's
// i-th resident replica. It returns false if no such replica exists.
func (c *Cache) CorruptReplica(addr uint64, i int, bit uint) bool {
	reps := c.findReplicas(c.blockAddr(addr))
	if i < 0 || i >= len(reps) {
		return false
	}
	reps[i].data[int(addr)&(c.cfg.BlockSize-1)] ^= 1 << (bit % 8)
	return true
}

// PrimaryDirty reports whether the block containing addr has a dirty
// resident primary copy.
func (c *Cache) PrimaryDirty(addr uint64) bool {
	ln := c.lookupPrimary(c.blockAddr(addr))
	return ln != nil && ln.dirty
}

// ReadWord returns the stored (possibly corrupted) 64-bit word containing
// addr from the primary copy, without updating any cache state.
func (c *Cache) ReadWord(addr uint64) (uint64, bool) {
	ln := c.lookupPrimary(c.blockAddr(addr))
	if ln == nil {
		return 0, false
	}
	return ecc.Word64(ln.data, int(addr)&(c.cfg.BlockSize-1)), true
}

// HasPrimary reports whether the block containing addr has a resident
// primary copy.
func (c *Cache) HasPrimary(addr uint64) bool {
	return c.lookupPrimary(c.blockAddr(addr)) != nil
}

// WouldHit reports whether a load of addr would be served without a miss:
// a resident primary, or (in §5.6 performance mode) a leftover replica.
// It changes no state; the core uses it to gate loads on MSHR capacity.
func (c *Cache) WouldHit(addr uint64) bool {
	ba := c.blockAddr(addr)
	if c.lookupPrimary(ba) != nil {
		return true
	}
	return c.cfg.Repl.LeaveReplicas && c.hasReplica(ba)
}

// ReplicaCount returns the number of resident replicas for the block
// containing addr.
func (c *Cache) ReplicaCount(addr uint64) int {
	return len(c.findReplicas(c.blockAddr(addr)))
}

// CheckInvariants validates internal consistency and returns an error
// describing the first violation found. It is exercised by tests and
// property checks:
//
//  1. at most one primary copy of any block, and it lives in its home set;
//  2. every replica belongs to a scheme with replication enabled;
//  3. check bits lengths match the geometry.
func (c *Cache) CheckInvariants() error {
	for i := range c.lines {
		ln := &c.lines[i]
		if !ln.valid {
			continue
		}
		set := i / c.cfg.Assoc
		if ln.replica {
			if !c.cfg.Scheme.HasReplication() {
				return fmt.Errorf("replica present in non-replicating scheme (line %d)", i)
			}
		} else {
			if got := c.homeSet(ln.blockAddr); got != set {
				return fmt.Errorf("primary of block %#x in set %d, home is %d", ln.blockAddr, set, got)
			}
			// A duplicate primary must share the home set, so scanning the
			// earlier ways of this set finds it without a map.
			for j := set * c.cfg.Assoc; j < i; j++ {
				dup := &c.lines[j]
				if dup.valid && !dup.replica && dup.blockAddr == ln.blockAddr {
					return fmt.Errorf("duplicate primary for block %#x", ln.blockAddr)
				}
			}
		}
		if len(ln.data) != c.cfg.BlockSize || len(ln.parity) != ecc.ParityBytesPerLine(c.cfg.BlockSize) {
			return fmt.Errorf("line %d: bad payload geometry", i)
		}
	}
	return nil
}

// Reset restores the cache to its post-construction state — every line
// invalid with zeroed metadata, counters and scrub state cleared — without
// reallocating the per-line data, parity, or ECC arrays. Stale payload
// bytes in invalid lines are unreachable: every fill copies the full block
// (and recomputes its check bits) before the line turns valid. Attached
// components (write buffer, duplicate cache, energy meter) have their own
// Reset methods; the caller resets them alongside.
func (c *Cache) Reset() {
	for i := range c.lines {
		l := &c.lines[i]
		data, parity, eccb := l.data, l.parity, l.eccb
		*l = line{data: data, parity: parity, eccb: eccb, idx: i}
	}
	c.clock = 0
	c.initTune()
	c.stats = Stats{}
	c.storeSeq = 0
	c.lastWord = -1
	c.replScratch = c.replScratch[:0]
	c.usedSets = c.usedSets[:0]
	c.scrubPos = 0
	c.scrub = ScrubStats{}
	c.cross = CrossStats{}
	c.crossBuf = [8]byte{}
}
