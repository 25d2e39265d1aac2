// Package cache provides the memory-hierarchy substrate beneath the ICR
// data cache: a generic set-associative timing cache with LRU replacement
// and write-back or write-through policies, a coalescing write buffer (for
// the paper's write-through comparison, §5.8), and a latency+content main
// memory.
//
// Only the ICR L1 data cache (internal/core) carries real, corruptible data
// bits. The levels in this package model timing and access counts; block
// content is held architecturally by Memory, which both the L2 timing model
// and the ICR cache sit above.
package cache

import (
	"fmt"
	"math/bits"
)

// Kind is the type of a cache access.
type Kind uint8

// Access kinds.
const (
	Read  Kind = iota + 1 // data load
	Write                 // data store / write-back from above
	Fetch                 // instruction fetch
)

// String returns a short name for the access kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Fetch:
		return "fetch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Level is one level of the memory hierarchy. Access requests the block
// containing addr and returns the total latency in cycles, including any
// latency incurred at lower levels on a miss.
type Level interface {
	Access(now uint64, addr uint64, kind Kind) (latency uint64)
}

// WritePolicy selects how writes propagate to the next level.
type WritePolicy uint8

// Write policies.
const (
	// WriteBack marks lines dirty and writes them to the next level only
	// on eviction. Writes allocate on miss.
	WriteBack WritePolicy = iota + 1
	// WriteThrough forwards every write to the next level (through the
	// configured write buffer if present). Writes do not allocate on miss.
	WriteThrough
)

// Config describes one cache level.
type Config struct {
	Name       string
	Size       int    // total bytes
	Assoc      int    // ways per set
	BlockSize  int    // bytes per line
	HitLatency uint64 // cycles for a hit
	Policy     WritePolicy
	Next       Level        // lower level (required)
	WriteBuf   *WriteBuffer // optional; used by WriteThrough

	// PortOccupancy, when nonzero, models a single bank/port: each access
	// holds the array for this many cycles, and an access arriving while
	// the port is busy is delayed (the delay is added to its latency).
	// This is what makes heavy write-through traffic to an L2 expensive
	// (§5.8): write-buffer drains and demand fills contend for the same
	// port.
	PortOccupancy uint64
}

// Stats counts cache events. All fields are cumulative.
type Stats struct {
	Reads, ReadMisses    uint64
	Writes, WriteMisses  uint64
	Fetches, FetchMisses uint64
	Writebacks           uint64 // dirty evictions written to the next level
	WriteThroughs        uint64 // writes forwarded by the write-through policy
	PortStallCycles      uint64 // cycles accesses waited for a busy port
}

// Accesses returns the total number of accesses of all kinds.
func (s *Stats) Accesses() uint64 { return s.Reads + s.Writes + s.Fetches }

// Misses returns the total number of misses of all kinds.
func (s *Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses + s.FetchMisses }

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s *Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is a set-associative timing cache with LRU replacement.
type Cache struct {
	cfg        Config //icrvet:persistent construction input: pooled reuse keys on the same geometry
	offsetBits uint   //icrvet:persistent geometry: derived from cfg at construction
	indexMask  uint64 //icrvet:persistent geometry: derived from cfg at construction
	lines      []line // sets*assoc, way-major within a set
	clock      uint64
	stats      Stats
	portBusy   uint64 // cycle the port frees (PortOccupancy > 0 only)
}

var _ Level = (*Cache)(nil)

// New builds a cache from cfg. It panics on invalid geometry (a
// programming error, not a runtime condition).
func New(cfg Config) *Cache {
	if cfg.Size <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic("cache: size, assoc, and block size must be positive")
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic("cache: block size must be a power of two")
	}
	if cfg.Size%(cfg.Assoc*cfg.BlockSize) != 0 {
		panic("cache: size must be a multiple of assoc*blockSize")
	}
	sets := cfg.Size / (cfg.Assoc * cfg.BlockSize)
	if sets&(sets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	if cfg.Next == nil {
		panic("cache: next level is required")
	}
	if cfg.Policy == 0 {
		cfg.Policy = WriteBack
	}
	offsetBits := uint(0)
	for 1<<offsetBits < cfg.BlockSize {
		offsetBits++
	}
	return &Cache{
		cfg:        cfg,
		offsetBits: offsetBits,
		indexMask:  uint64(sets) - 1,
		lines:      make([]line, sets*cfg.Assoc),
	}
}

// BlockSize returns the line size in bytes.
func (c *Cache) BlockSize() int { return c.cfg.BlockSize }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats { return c.stats }

// blockAddr strips the offset bits.
func (c *Cache) blockAddr(addr uint64) uint64 { return addr >> c.offsetBits }

func (c *Cache) setIndex(blockAddr uint64) int { return int(blockAddr & c.indexMask) }

// lookup returns the way holding blockAddr in its set, or -1.
func (c *Cache) lookup(blockAddr uint64) int {
	base := c.setIndex(blockAddr) * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == blockAddr {
			return base + w
		}
	}
	return -1
}

// Contains reports whether the block holding addr is resident. It does not
// update LRU state and is intended for tests and introspection.
func (c *Cache) Contains(addr uint64) bool { return c.lookup(c.blockAddr(addr)) >= 0 }

// Access implements Level.
func (c *Cache) Access(now uint64, addr uint64, kind Kind) uint64 {
	ba := c.blockAddr(addr)
	c.clock++

	switch kind {
	case Read:
		c.stats.Reads++
	case Write:
		c.stats.Writes++
	case Fetch:
		c.stats.Fetches++
	}

	// Port contention: wait for the array to free, then occupy it.
	var portDelay uint64
	if c.cfg.PortOccupancy > 0 {
		if c.portBusy > now {
			portDelay = c.portBusy - now
			c.stats.PortStallCycles += portDelay
		}
		c.portBusy = now + portDelay + c.cfg.PortOccupancy
		now += portDelay
	}

	if c.cfg.Policy == WriteThrough && kind == Write {
		return portDelay + c.accessWriteThrough(now, addr, ba)
	}

	if i := c.lookup(ba); i >= 0 {
		ln := &c.lines[i]
		ln.lru = c.clock
		if kind == Write {
			ln.dirty = true
		}
		return portDelay + c.cfg.HitLatency
	}

	// Miss: count, fetch from below, allocate.
	switch kind {
	case Read:
		c.stats.ReadMisses++
	case Write:
		c.stats.WriteMisses++
	case Fetch:
		c.stats.FetchMisses++
	}
	lat := c.cfg.HitLatency + c.cfg.Next.Access(now+c.cfg.HitLatency, addr, Read)
	c.allocate(now, ba, kind == Write)
	return portDelay + lat
}

// accessWriteThrough handles a store under the write-through policy:
// update the line if present (no allocate on miss) and forward the write
// to the next level, through the write buffer when configured.
func (c *Cache) accessWriteThrough(now uint64, addr, ba uint64) uint64 {
	if i := c.lookup(ba); i >= 0 {
		c.lines[i].lru = c.clock
		// Line stays clean: the next level is updated immediately.
	} else {
		c.stats.WriteMisses++
	}
	c.stats.WriteThroughs++
	if c.cfg.WriteBuf != nil {
		stall := c.cfg.WriteBuf.Add(now, ba)
		return c.cfg.HitLatency + stall
	}
	return c.cfg.HitLatency + c.cfg.Next.Access(now+c.cfg.HitLatency, addr, Write)
}

// allocate installs blockAddr, evicting the LRU way.
//
// Buffered-writeback contract: a dirty victim is forwarded to the next
// level as a Write at the demand miss's timestamp, so the victim (a) is
// counted in the next level's write statistics, (b) occupies the next
// level's port (PortOccupancy) and thereby delays later demand traffic,
// and (c) updates no content (block bytes are held architecturally by
// Memory, which data-carrying levels update before their eviction reaches
// this path). The returned latency is deliberately discarded: write-backs
// ride a dedicated eviction buffer in real hardware, so their latency is
// never charged to the demand miss that displaced them — only the port
// pressure they create is modeled. This contract is pinned by
// TestDirtyEvictionBufferedWritebackContract.
func (c *Cache) allocate(now uint64, blockAddr uint64, dirty bool) {
	base := c.setIndex(blockAddr) * c.cfg.Assoc
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
	if v.valid && v.dirty {
		c.stats.Writebacks++
		// Timing: buffered; content: architecturally handled by Memory.
		c.cfg.Next.Access(now, v.tag<<c.offsetBits, Write)
	}
	*v = line{valid: true, dirty: dirty, tag: blockAddr, lru: c.clock}
}

// ---------------------------------------------------------------------------
// Write buffer
// ---------------------------------------------------------------------------

// WriteBufferStats counts write-buffer events.
type WriteBufferStats struct {
	Adds        uint64 // entries enqueued
	Coalesced   uint64 // writes merged into an existing entry
	Retired     uint64 // entries drained to the next level
	Stalls      uint64 // adds that found the buffer full
	StallCycles uint64 // total cycles stalled waiting for space
}

// WriteBuffer is a coalescing write buffer between a write-through L1 and
// the next level (the paper uses an 8-entry coalescing buffer, after
// Skadron & Clark). Entries retire in FIFO order, one per next-level
// access latency; a store that finds the buffer full stalls until the
// front entry retires.
type WriteBuffer struct {
	entries   int      //icrvet:persistent capacity: fixed at construction
	interval  uint64   //icrvet:persistent cycles per retirement (next-level write latency), fixed at construction
	next      Level    //icrvet:persistent hierarchy wiring: the next level is itself reset by the pool owner
	queue     []uint64 // block addresses, FIFO
	frontDone uint64   // cycle the front entry finishes retiring
	// clock is the high-water mark of every `now` the buffer has observed.
	// Overdue entries (frontDone long in the past because the buffer sat
	// idle) retire at this clock, never at their stale frontDone: the next
	// level must see non-decreasing timestamps even when drains interleave
	// with demand misses issued at later cycles.
	clock     uint64
	lastIssue uint64 // last timestamp handed to next.Access (monotonicity check)
	stats     WriteBufferStats
}

// NewWriteBuffer returns a write buffer with the given capacity that
// retires one entry per interval cycles into next.
func NewWriteBuffer(entries int, interval uint64, next Level) *WriteBuffer {
	if entries <= 0 {
		panic("cache: write buffer needs at least one entry")
	}
	if next == nil {
		panic("cache: write buffer needs a next level")
	}
	if interval == 0 {
		interval = 1
	}
	return &WriteBuffer{entries: entries, interval: interval, next: next}
}

// Stats returns a snapshot of the buffer's counters.
func (w *WriteBuffer) Stats() WriteBufferStats { return w.stats }

// Len returns the number of queued entries. It never mutates the buffer;
// call Drain first when retirement up to the current cycle should be
// modeled before counting.
func (w *WriteBuffer) Len() int { return len(w.queue) }

// Drain retires every entry whose turn has come by cycle now, forwarding
// each to the next level.
func (w *WriteBuffer) Drain(now uint64) {
	w.observe(now)
	w.drain(now)
}

// observe advances the buffer's monotonic clock to now.
func (w *WriteBuffer) observe(now uint64) {
	if now > w.clock {
		w.clock = now
	}
}

func (w *WriteBuffer) drain(now uint64) {
	for len(w.queue) > 0 && w.frontDone <= now {
		ba := w.queue[0]
		// Shift down rather than re-slice: the queue is tiny (8 entries in
		// the paper's configuration) and keeping the backing array intact
		// keeps Add allocation-free forever.
		copy(w.queue, w.queue[1:])
		w.queue = w.queue[:len(w.queue)-1]
		w.stats.Retired++
		// Overdue retirements are clamped to the observed clock so the
		// next level's timeline never runs backwards.
		at := w.frontDone
		if at < w.clock {
			at = w.clock
		}
		if at < w.lastIssue {
			panic("cache: write buffer issued a non-monotonic timestamp")
		}
		w.lastIssue = at
		w.next.Access(at, ba, Write) // count the L2 write
		if len(w.queue) > 0 {
			w.frontDone += w.interval
		}
	}
}

// Add enqueues a write of the given block and returns the stall cycles the
// store suffers (zero unless the buffer is full and cannot coalesce).
func (w *WriteBuffer) Add(now uint64, blockAddr uint64) (stall uint64) {
	w.observe(now)
	w.drain(now)
	for _, ba := range w.queue {
		if ba == blockAddr {
			w.stats.Coalesced++
			return 0
		}
	}
	if len(w.queue) >= w.entries {
		// Stall until the front entry retires, then take its slot. The
		// stalled store experiences time now+stall, so the clock advances
		// with it.
		w.stats.Stalls++
		stall = w.frontDone - now
		w.stats.StallCycles += stall
		w.observe(now + stall)
		w.drain(w.frontDone)
	}
	if len(w.queue) == 0 {
		w.frontDone = now + stall + w.interval
	}
	w.queue = append(w.queue, blockAddr)
	w.stats.Adds++
	return stall
}

// ---------------------------------------------------------------------------
// Main memory
// ---------------------------------------------------------------------------

// Memory is the bottom of the hierarchy: fixed latency, plus the
// architectural content store for every block. Blocks that have never been
// written read as a deterministic pseudo-random pattern derived from their
// address, so simulations are reproducible and data-carrying levels can be
// verified against ground truth.
//
// Written blocks live in a flat open-addressed table keyed by block
// address (linear probing, at most half full) whose slots point into
// fixed-size payload chunks: a lookup is a multiply and a short probe of
// one array, and storing a block allocates nothing but an occasional new
// chunk or a table doubling.
type Memory struct {
	Latency   uint64    //icrvet:persistent construction parameter, identical for every run sharing the pool shape
	BlockSize int       //icrvet:persistent construction parameter, identical for every run sharing the pool shape
	slots     []memSlot // power-of-two length; nil until the first stored block
	chunks    [][]byte  //icrvet:persistent payloads, memChunkBlocks blocks per chunk, in store order; kept across Reset, reachable only through a slot, and set by their storer
	stored    int       // stored-block count
	shift     uint      //icrvet:persistent 64 - log2 of the table's group count, the hash's shift, changed only with the table
	reads     uint64
	writes    uint64
	fetches   uint64
	scratch   []byte //icrvet:persistent PeekBlock's synthesis buffer for never-written blocks, fully overwritten before each use
}

// memSlot is one slot of Memory's block table: a block address and 1 +
// the index of its payload, 0 marking an empty slot.
type memSlot struct {
	key uint64
	ref uint32
}

const (
	// memChunkBlocks is the number of block payloads per allocated chunk.
	memChunkBlocks = 128
	// memGroupBlocks is the number of consecutive blocks whose table
	// slots are adjacent: four 16-byte slots fill a 64-byte cache line.
	memGroupBlocks = 4
)

var _ Level = (*Memory)(nil)

// NewMemory returns a Memory with the given access latency and block size.
func NewMemory(latency uint64, blockSize int) *Memory {
	if blockSize <= 0 {
		panic("cache: memory block size must be positive")
	}
	return &Memory{Latency: latency, BlockSize: blockSize}
}

// Access implements Level. Reads, writes, and instruction fetches are
// counted separately so memory-tier traffic can be priced per direction
// (DRAM/CXL write energy differs from read energy); the latency model is
// direction-independent.
func (m *Memory) Access(_ uint64, _ uint64, kind Kind) uint64 {
	switch kind {
	case Write:
		m.writes++
	case Fetch:
		m.fetches++
	default:
		m.reads++
	}
	return m.Latency
}

// Accesses returns how many requests reached memory, of all kinds.
func (m *Memory) Accesses() uint64 { return m.reads + m.writes + m.fetches }

// Reads returns how many data reads (and unclassified requests) reached
// memory.
func (m *Memory) Reads() uint64 { return m.reads }

// Writes returns how many writes (write-backs and buffered write-throughs)
// reached memory.
func (m *Memory) Writes() uint64 { return m.writes }

// Fetches returns how many instruction fetches reached memory.
func (m *Memory) Fetches() uint64 { return m.fetches }

// Blocks returns how many blocks hold written content.
func (m *Memory) Blocks() int { return m.stored }

// splitmix64 is a tiny, high-quality mixing function used to synthesize
// deterministic block contents.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// synthesize fills out with the deterministic content of a never-written
// block.
func (m *Memory) synthesize(out []byte, blockAddr uint64) {
	for i := 0; i < m.BlockSize; i += 8 {
		v := splitmix64(blockAddr*uint64(m.BlockSize/8) + uint64(i/8))
		for j := 0; j < 8 && i+j < m.BlockSize; j++ {
			out[i+j] = byte(v >> (8 * j))
		}
	}
}

// home returns the table slot a block address hashes to. Fibonacci
// hashing of the address's group of memGroupBlocks consecutive blocks
// spreads groups over the table, and a group's blocks take consecutive
// slots, so a run of neighbouring blocks shares a host cache line of the
// table.
func (m *Memory) home(blockAddr uint64) int {
	g := (blockAddr / memGroupBlocks * 0x9e3779b97f4a7c15) >> m.shift
	return int(g*memGroupBlocks + blockAddr%memGroupBlocks)
}

// lookup returns the stored payload of a block, or nil if the block was
// never written.
func (m *Memory) lookup(blockAddr uint64) []byte {
	if m.stored == 0 {
		return nil
	}
	mask := len(m.slots) - 1
	for i := m.home(blockAddr); ; i = (i + 1) & mask {
		s := m.slots[i]
		if s.ref == 0 {
			return nil
		}
		if s.key == blockAddr {
			return m.payload(s.ref - 1)
		}
	}
}

// payload returns the p-th stored block's bytes.
func (m *Memory) payload(p uint32) []byte {
	c := m.chunks[p/memChunkBlocks]
	off := int(p%memChunkBlocks) * m.BlockSize
	return c[off : off+m.BlockSize : off+m.BlockSize]
}

// store adds a block that lookup does not find and returns its payload,
// whose content the caller sets. The table doubles before it would pass
// half full; a full last chunk gets a successor.
func (m *Memory) store(blockAddr uint64) []byte {
	if 2*(m.stored+1) > len(m.slots) {
		m.grow()
	}
	p := uint32(m.stored)
	if int(p/memChunkBlocks) == len(m.chunks) {
		//icrvet:ignore allocfree amortized growth: one chunk per memChunkBlocks stored blocks, kept across Reset
		m.chunks = append(m.chunks, make([]byte, memChunkBlocks*m.BlockSize))
	}
	m.place(blockAddr, p+1)
	m.stored++
	return m.payload(p)
}

// place puts a slot for a block that is not in the table.
func (m *Memory) place(blockAddr uint64, ref uint32) {
	mask := len(m.slots) - 1
	i := m.home(blockAddr)
	for m.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = memSlot{key: blockAddr, ref: ref}
}

// grow doubles the table (64 slots at first) and re-places every slot;
// payloads stay where they are.
func (m *Memory) grow() {
	old := m.slots
	n := 2 * len(old)
	if n == 0 {
		n = 64
	}
	//icrvet:ignore allocfree amortized growth: the table doubles, so each stored block pays O(1), and it is kept across Reset
	m.slots = make([]memSlot, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n/memGroupBlocks)))
	for _, s := range old {
		if s.ref != 0 {
			m.place(s.key, s.ref)
		}
	}
}

// FetchBlock returns the architectural content of the block with the given
// block address (addr >> log2(BlockSize)). The returned slice is a copy.
func (m *Memory) FetchBlock(blockAddr uint64) []byte {
	out := make([]byte, m.BlockSize)
	if b := m.lookup(blockAddr); b != nil {
		copy(out, b)
		return out
	}
	m.synthesize(out, blockAddr)
	return out
}

// PeekBlock returns the architectural content of a block without copying:
// the allocation-free read path for callers that only copy the bytes out
// (cache fills, scrub refills). The returned slice is owned by the Memory
// and must be treated as read-only; it is valid only until the next
// PeekBlock, WriteBlock, or WriteWord call (never-written blocks are
// synthesized into a single reusable scratch buffer).
func (m *Memory) PeekBlock(blockAddr uint64) []byte {
	if b := m.lookup(blockAddr); b != nil {
		return b
	}
	if m.scratch == nil {
		//icrvet:ignore allocfree one-time lazy scratch allocation, reused for every subsequent peek
		m.scratch = make([]byte, m.BlockSize)
	}
	m.synthesize(m.scratch, blockAddr)
	return m.scratch
}

// WriteBlock stores new architectural content for a block. The data is
// copied (into the block's existing payload when one exists, so
// steady-state write-backs do not allocate).
func (m *Memory) WriteBlock(blockAddr uint64, data []byte) {
	b := m.lookup(blockAddr)
	if b == nil {
		b = m.store(blockAddr)
	}
	copy(b, data)
}

// WriteWord updates the aligned 64-bit word containing byte offset off of
// a block in place — the read-modify-write a write-through store performs,
// without materializing a full block copy per store. First touch of a
// block synthesizes its deterministic content.
func (m *Memory) WriteWord(blockAddr uint64, off int, value uint64) {
	b := m.lookup(blockAddr)
	if b == nil {
		b = m.store(blockAddr)
		m.synthesize(b, blockAddr)
	}
	w := off &^ 7
	for i := 0; i < 8 && w+i < len(b); i++ {
		b[w+i] = byte(value >> (8 * i))
	}
}

// ---------------------------------------------------------------------------
// Reset (arena reuse)
// ---------------------------------------------------------------------------

// Reset restores the cache to its post-construction state — every line
// invalid, counters zeroed — without reallocating the line array.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.stats = Stats{}
	c.portBusy = 0
}

// Reset empties the buffer and zeroes its counters without reallocating
// the queue.
func (w *WriteBuffer) Reset() {
	w.queue = w.queue[:0]
	w.frontDone = 0
	w.clock = 0
	w.lastIssue = 0
	w.stats = WriteBufferStats{}
}

// Reset restores the memory to its post-construction content: every
// stored block is dropped, so each reads as its never-written pattern
// again, as it would on a fresh Memory, and the table holds only what the
// next run writes. The table and the payload chunks keep their capacity,
// so steady-state reuse allocates nothing.
func (m *Memory) Reset() {
	clear(m.slots)
	m.stored = 0
	m.reads = 0
	m.writes = 0
	m.fetches = 0
}
