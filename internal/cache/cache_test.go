package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fixedLevel is a test double for the next level with a constant latency.
type fixedLevel struct {
	latency  uint64
	accesses []Kind
	addrs    []uint64
}

func (f *fixedLevel) Access(_ uint64, addr uint64, kind Kind) uint64 {
	f.accesses = append(f.accesses, kind)
	f.addrs = append(f.addrs, addr)
	return f.latency
}

func newTestCache(size, assoc, block int, next Level) *Cache {
	return New(Config{
		Name: "t", Size: size, Assoc: assoc, BlockSize: block,
		HitLatency: 1, Next: next,
	})
}

func TestHitAndMissLatency(t *testing.T) {
	next := &fixedLevel{latency: 6}
	c := newTestCache(1024, 2, 64, next)
	if lat := c.Access(0, 0x100, Read); lat != 7 {
		t.Errorf("cold miss latency = %d, want 7 (1 + 6)", lat)
	}
	if lat := c.Access(1, 0x100, Read); lat != 1 {
		t.Errorf("hit latency = %d, want 1", lat)
	}
	if lat := c.Access(2, 0x13f, Read); lat != 1 {
		t.Errorf("same-block hit latency = %d, want 1", lat)
	}
	s := c.Stats()
	if s.Reads != 3 || s.ReadMisses != 1 {
		t.Errorf("stats = %+v, want 3 reads / 1 miss", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	next := &fixedLevel{latency: 6}
	// 2-way, 64B blocks, 2 sets: set = blockAddr % 2.
	c := newTestCache(256, 2, 64, next)
	// Three blocks in set 0: 0x000, 0x100, 0x200.
	c.Access(0, 0x000, Read)
	c.Access(1, 0x100, Read)
	c.Access(2, 0x000, Read) // refresh 0x000; 0x100 becomes LRU
	c.Access(3, 0x200, Read) // evicts 0x100
	if !c.Contains(0x000) {
		t.Error("0x000 should survive (recently used)")
	}
	if c.Contains(0x100) {
		t.Error("0x100 should have been evicted (LRU)")
	}
	if !c.Contains(0x200) {
		t.Error("0x200 should be resident")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	next := &fixedLevel{latency: 6}
	c := newTestCache(128, 1, 64, next) // direct-mapped, 2 sets
	c.Access(0, 0x000, Write)           // miss, allocate dirty
	next.accesses = nil
	c.Access(1, 0x100, Read) // same set, evicts dirty 0x000
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	// Next level saw the demand fill (Read) and the writeback (Write).
	var reads, writes int
	for _, k := range next.accesses {
		switch k {
		case Read:
			reads++
		case Write:
			writes++
		}
	}
	if reads != 1 || writes != 1 {
		t.Errorf("next-level traffic reads=%d writes=%d, want 1/1", reads, writes)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	next := &fixedLevel{latency: 6}
	c := newTestCache(128, 1, 64, next)
	c.Access(0, 0x000, Read)
	c.Access(1, 0x100, Read) // evicts clean line
	if s := c.Stats(); s.Writebacks != 0 {
		t.Errorf("writebacks = %d, want 0", s.Writebacks)
	}
}

func TestWriteBufferCoalescing(t *testing.T) {
	next := &fixedLevel{latency: 6}
	wb := NewWriteBuffer(8, 6, next)
	wb.Add(0, 42)
	wb.Add(0, 42) // same block: coalesces
	s := wb.Stats()
	if s.Adds != 1 || s.Coalesced != 1 {
		t.Errorf("stats = %+v, want 1 add / 1 coalesced", s)
	}
	wb.Drain(0)
	if wb.Len() != 1 {
		t.Errorf("pending = %d, want 1", wb.Len())
	}
}

func TestWriteBufferDrains(t *testing.T) {
	next := &fixedLevel{latency: 6}
	wb := NewWriteBuffer(8, 10, next)
	wb.Add(0, 1)
	wb.Add(0, 2)
	wb.Drain(5)
	if wb.Len() != 2 {
		t.Errorf("pending@5 = %d, want 2", wb.Len())
	}
	wb.Drain(10)
	if wb.Len() != 1 {
		t.Errorf("pending@10 = %d, want 1", wb.Len())
	}
	wb.Drain(20)
	if wb.Len() != 0 {
		t.Errorf("pending@20 = %d, want 0", wb.Len())
	}
	if got := wb.Stats().Retired; got != 2 {
		t.Errorf("retired = %d, want 2", got)
	}
	if len(next.accesses) != 2 {
		t.Errorf("next level saw %d writes, want 2", len(next.accesses))
	}
}

// monotonicLevel fails the test if it ever sees time run backwards across
// Access calls, regardless of which component issued them.
type monotonicLevel struct {
	t       *testing.T
	latency uint64
	last    uint64
	seen    int
}

func (m *monotonicLevel) Access(now uint64, addr uint64, kind Kind) uint64 {
	if now < m.last {
		m.t.Errorf("next level saw time run backwards: %d after %d (addr %#x, kind %v)",
			now, m.last, addr, kind)
	}
	m.last = now
	m.seen++
	return m.latency
}

// Regression test: a write buffer left idle long enough accumulates overdue
// retirements (frontDone far in the past). Before the monotonic clamp, a
// later Add or Drain would forward those entries to the next level at their
// stale frontDone timestamps — *earlier* than demand misses the same next
// level had already served — so the shared L2 timeline ran backwards.
func TestWriteBufferDrainTimestampsMonotonic(t *testing.T) {
	next := &monotonicLevel{t: t, latency: 6}
	wb := NewWriteBuffer(8, 10, next)

	// Enqueue a few writes early; their retirement slots are cycles 10,
	// 20, 30, all long overdue by the time anything drains them.
	wb.Add(0, 1)
	wb.Add(1, 2)
	wb.Add(2, 3)

	// A demand miss stream hits the same next level at much later cycles.
	next.Access(500, 0x1000, Read)
	next.Access(600, 0x2000, Read)

	// Now the overdue entries drain: every forwarded timestamp must be
	// >= 600, not the stale 10/20/30.
	wb.Add(700, 4)
	if next.last < 600 {
		t.Fatalf("drain rewound the clock to %d", next.last)
	}

	// And interleave once more: idle again, demand misses advance time,
	// then an explicit Drain retires the leftovers.
	next.Access(900, 0x3000, Read)
	wb.Drain(950)
	if wb.Len() != 0 {
		t.Fatalf("pending = %d, want 0 after drain", wb.Len())
	}
	if next.seen < 7 {
		t.Fatalf("next level saw %d accesses, want >= 7", next.seen)
	}
}

// An Add that stalls on a full buffer must also respect monotonicity: the
// freed slot's retirement is issued no earlier than anything already seen.
func TestWriteBufferStallDrainMonotonic(t *testing.T) {
	next := &monotonicLevel{t: t, latency: 6}
	wb := NewWriteBuffer(2, 10, next)
	wb.Add(0, 1) // front retires at 10
	wb.Add(0, 2) // queued behind it
	next.Access(5, 0x1000, Read)
	if stall := wb.Add(0, 3); stall != 10 {
		t.Errorf("stall = %d, want 10", stall)
	}
}

func TestWriteBufferFullStalls(t *testing.T) {
	next := &fixedLevel{latency: 6}
	wb := NewWriteBuffer(2, 10, next)
	wb.Add(0, 1) // front retires at 10
	wb.Add(0, 2)
	stall := wb.Add(0, 3) // full: waits for front
	if stall != 10 {
		t.Errorf("stall = %d, want 10", stall)
	}
	s := wb.Stats()
	if s.Stalls != 1 || s.StallCycles != 10 {
		t.Errorf("stats = %+v, want 1 stall / 10 cycles", s)
	}
}

func TestMemoryDeterministicContent(t *testing.T) {
	m := NewMemory(100, 64)
	a := m.FetchBlock(7)
	b := m.FetchBlock(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FetchBlock should be deterministic")
		}
	}
	c := m.FetchBlock(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different blocks should have different synthesized content")
	}
}

func TestMemoryWriteReadBack(t *testing.T) {
	m := NewMemory(100, 64)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 3)
	}
	m.WriteBlock(5, data)
	data[0] = 0xff // caller mutation must not leak in
	got := m.FetchBlock(5)
	if got[0] != 0 || got[1] != 3 {
		t.Errorf("read back = %v...", got[:2])
	}
	got[1] = 0xee // returned slice mutation must not leak back
	again := m.FetchBlock(5)
	if again[1] != 3 {
		t.Error("FetchBlock must return a copy")
	}
}

func TestMemoryAccessLatency(t *testing.T) {
	m := NewMemory(100, 64)
	if lat := m.Access(0, 0, Read); lat != 100 {
		t.Errorf("latency = %d, want 100", lat)
	}
	if m.Accesses() != 1 {
		t.Errorf("accesses = %d, want 1", m.Accesses())
	}
}

// Property: a cache never reports more misses than accesses, and residency
// after an access always holds for the accessed block (write-back policy).
func TestCacheInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		next := &fixedLevel{latency: 6}
		c := newTestCache(1024, 4, 64, next)
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(1 << 14))
			kind := Read
			if rng.Intn(3) == 0 {
				kind = Write
			}
			c.Access(uint64(i), addr, kind)
			if !c.Contains(addr) {
				return false
			}
		}
		s := c.Stats()
		return s.Misses() <= s.Accesses() && s.MissRate() >= 0 && s.MissRate() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	next := &fixedLevel{}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero size", func() {
		New(Config{Size: 0, Assoc: 1, BlockSize: 64, Next: next})
	})
	mustPanic("non-pow2 block", func() {
		New(Config{Size: 1024, Assoc: 1, BlockSize: 48, Next: next})
	})
	mustPanic("nil next", func() {
		New(Config{Size: 1024, Assoc: 1, BlockSize: 64})
	})
	mustPanic("non-pow2 sets", func() {
		New(Config{Size: 3 * 64, Assoc: 1, BlockSize: 64, Next: next})
	})
	mustPanic("membloc", func() { NewMemory(1, 0) })
	mustPanic("wb entries", func() { NewWriteBuffer(0, 1, next) })
	mustPanic("wb next", func() { NewWriteBuffer(1, 1, nil) })
}

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" || Fetch.String() != "fetch" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should stringify")
	}
}
