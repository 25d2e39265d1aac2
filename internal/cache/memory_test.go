package cache

import "testing"

// recordingLevel records every access it sees: kind, block-aligned
// address, and timestamp, returning a fixed latency.
type recordingLevel struct {
	latency uint64
	kinds   []Kind
	addrs   []uint64
	times   []uint64
}

func (r *recordingLevel) Access(now uint64, addr uint64, kind Kind) uint64 {
	r.kinds = append(r.kinds, kind)
	r.addrs = append(r.addrs, addr)
	r.times = append(r.times, now)
	return r.latency
}

// TestMemoryAccessKindSplit pins the memory-tier accounting fix: Access
// must bucket traffic by Kind (reads, writes, fetches) instead of one
// undifferentiated counter, with Accesses() staying the total so existing
// reports are unchanged.
func TestMemoryAccessKindSplit(t *testing.T) {
	m := NewMemory(100, 64)
	for i := 0; i < 2; i++ {
		if lat := m.Access(uint64(i), 0x40, Read); lat != 100 {
			t.Fatalf("read latency = %d, want 100", lat)
		}
	}
	for i := 0; i < 3; i++ {
		if lat := m.Access(uint64(i), 0x80, Write); lat != 100 {
			t.Fatalf("write latency = %d, want 100", lat)
		}
	}
	if lat := m.Access(9, 0xc0, Fetch); lat != 100 {
		t.Fatalf("fetch latency = %d, want 100", lat)
	}
	if m.Reads() != 2 || m.Writes() != 3 || m.Fetches() != 1 {
		t.Errorf("split = %d/%d/%d reads/writes/fetches, want 2/3/1",
			m.Reads(), m.Writes(), m.Fetches())
	}
	if m.Accesses() != 6 {
		t.Errorf("Accesses() = %d, want 6 (the total must stay the sum)", m.Accesses())
	}
	m.Reset()
	if m.Reads() != 0 || m.Writes() != 0 || m.Fetches() != 0 || m.Accesses() != 0 {
		t.Errorf("Reset left counters: %d/%d/%d", m.Reads(), m.Writes(), m.Fetches())
	}
}

// TestDirtyEvictionBufferedWritebackContract pins the buffered-writeback
// contract documented on Cache.allocate: a dirty victim is forwarded to
// the next level as a Write at the demand miss's timestamp — counted in
// the next level's write statistics — and its latency is deliberately
// discarded (write-backs ride a dedicated eviction buffer, so only the
// demand fill is charged to the miss).
func TestDirtyEvictionBufferedWritebackContract(t *testing.T) {
	next := &recordingLevel{latency: 40}
	c := newTestCache(128, 1, 64, next) // direct-mapped, 2 sets
	c.Access(0, 0x000, Write)           // miss, allocate dirty
	next.kinds, next.addrs, next.times = nil, nil, nil

	lat := c.Access(100, 0x100, Read) // same set: evicts dirty 0x000
	if lat != 41 {
		t.Errorf("demand miss latency = %d, want 41 (1 + 40 fill): the write-back's latency must be discarded", lat)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	if len(next.kinds) != 2 {
		t.Fatalf("next level saw %d accesses (%v), want fill + write-back", len(next.kinds), next.kinds)
	}
	// Call order is fill first (it determines the miss latency), then the
	// buffered write-back stamped at the demand miss's own timestamp.
	if next.kinds[0] != Read || next.addrs[0] != 0x100 || next.times[0] != 101 {
		t.Errorf("fill = %v %#x @%d, want Read 0x100 @101", next.kinds[0], next.addrs[0], next.times[0])
	}
	if next.kinds[1] != Write || next.addrs[1] != 0x000 || next.times[1] != 100 {
		t.Errorf("write-back = %v %#x @%d, want Write 0x000 @100 (the demand miss's timestamp)",
			next.kinds[1], next.addrs[1], next.times[1])
	}
}

// TestDirtyEvictionOccupiesNextLevelPort pins the port half of the
// contract: the write-back is free for the evicting miss but occupies the
// next level's port, so demand traffic right behind it stalls.
func TestDirtyEvictionOccupiesNextLevelPort(t *testing.T) {
	mem := &recordingLevel{latency: 100}
	next := New(Config{
		Name: "l2", Size: 4096, Assoc: 4, BlockSize: 64,
		HitLatency: 6, Next: mem,
		PortOccupancy: 4,
	})
	c := New(Config{
		Name: "l1", Size: 128, Assoc: 1, BlockSize: 64,
		HitLatency: 1, Next: next,
	})
	// Warm the next level so later fills hit there.
	next.Access(0, 0x100, Read)
	next.Access(10, 0x200, Read)

	c.Access(1000, 0x000, Write) // miss, allocate dirty
	// Evicting miss: fill at 2001 (next port until 2005), write-back at
	// 2000 queues behind it (port until 2009).
	c.Access(2000, 0x100, Read)
	// A demand miss right behind the write-back waits for the port: fill
	// issued at 2003 stalls 6 cycles, then hits in 6 more.
	if lat := c.Access(2002, 0x200, Read); lat != 13 {
		t.Errorf("post-write-back miss latency = %d, want 13 (1 + 6 port stall + 6 hit)", lat)
	}
	if stalls := next.Stats().PortStallCycles; stalls == 0 {
		t.Error("write-back occupied no next-level port time")
	}
}
