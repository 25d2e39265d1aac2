package cache

import (
	"bytes"
	"math/rand"
	"testing"
)

// refMemory is the executable specification of Memory's content store: a
// map of written blocks over a never-written Memory's synthesized pattern.
type refMemory struct {
	blocks map[uint64][]byte
	virgin *Memory // never written: every read is the synthesized pattern
}

func newRefMemory(blockSize int) *refMemory {
	return &refMemory{blocks: make(map[uint64][]byte), virgin: NewMemory(0, blockSize)}
}

func (r *refMemory) read(ba uint64) []byte {
	if b, ok := r.blocks[ba]; ok {
		return b
	}
	return r.virgin.FetchBlock(ba)
}

func (r *refMemory) write(ba uint64, data []byte) { r.blocks[ba] = bytes.Clone(data) }

func (r *refMemory) writeWord(ba uint64, off int, v uint64) {
	b := bytes.Clone(r.read(ba))
	for i := 0; i < 8; i++ {
		b[off&^7+i] = byte(v >> (8 * i))
	}
	r.blocks[ba] = b
}

// collidingKeys returns n block addresses that share one home slot in
// every table of up to 2^20 groups: the hash multiplier is odd, so it has
// an inverse modulo 2^64, and the keys' groups are made from products that
// differ only below the top 20 bits.
func collidingKeys(n int) []uint64 {
	const mul = 0x9e3779b97f4a7c15
	inv := uint64(mul)
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv // Newton's iteration doubles the correct low bits
	}
	var keys []uint64
	for i := uint64(1); len(keys) < n; i++ {
		// A group number must survive the multiply back into a key.
		if group := (0xabcde<<44 | i) * inv; group < 1<<62 {
			keys = append(keys, group*memGroupBlocks)
		}
	}
	return keys
}

// TestMemoryMatchesMapModel drives random reads, writes, word writes and
// resets through Memory and the map model and requires every read to
// agree. The key pool holds block address 0, keys that collide in every
// table size, and enough distinct keys to make the table grow several
// times.
func TestMemoryMatchesMapModel(t *testing.T) {
	const bs = 32
	keys := append([]uint64{0, 1, 2, 3, 4, ^uint64(0) >> 3}, collidingKeys(12)...)
	m := NewMemory(0, bs)
	m.WriteWord(keys[0], 0, 0) // allocates the table, so home has a shift
	probe := m.home(keys[6])
	for _, k := range keys[6:] {
		if m.home(k) != probe {
			t.Fatalf("key %#x does not collide with %#x", k, keys[6])
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		keys = append(keys, uint64(rng.Intn(1<<16)))
	}
	ref := newRefMemory(bs)
	ref.writeWord(keys[0], 0, 0)
	data := make([]byte, bs)
	for i := 0; i < 60000; i++ {
		ba := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(100); {
		case r < 30:
			if got, want := m.PeekBlock(ba), ref.read(ba); !bytes.Equal(got, want) {
				t.Fatalf("op %d: PeekBlock(%#x) = %x, want %x", i, ba, got, want)
			}
		case r < 45:
			if got, want := m.FetchBlock(ba), ref.read(ba); !bytes.Equal(got, want) {
				t.Fatalf("op %d: FetchBlock(%#x) = %x, want %x", i, ba, got, want)
			}
		case r < 75:
			rng.Read(data)
			m.WriteBlock(ba, data)
			ref.write(ba, data)
		case r < 99:
			off, v := rng.Intn(bs), rng.Uint64()
			m.WriteWord(ba, off, v)
			ref.writeWord(ba, off, v)
		default:
			if rng.Intn(20) != 0 {
				break
			}
			// A reset drops every stored block and keeps the table and
			// the payload chunks for the blocks written next.
			slots, chunks := len(m.slots), len(m.chunks)
			m.Reset()
			ref = newRefMemory(bs)
			if m.Blocks() != 0 || len(m.slots) != slots || len(m.chunks) != chunks {
				t.Fatalf("op %d: Reset left %d blocks, %d of %d slots, %d of %d chunks",
					i, m.Blocks(), len(m.slots), slots, len(m.chunks), chunks)
			}
		}
	}
	if len(m.slots) < 4096 {
		t.Errorf("table has %d slots after %d distinct keys: it never grew", len(m.slots), len(keys))
	}
	for _, ba := range keys {
		if got, want := m.PeekBlock(ba), ref.read(ba); !bytes.Equal(got, want) {
			t.Fatalf("final PeekBlock(%#x) = %x, want %x", ba, got, want)
		}
	}
}

// TestPeekBlockAliasing pins PeekBlock's contract: the result is exactly
// one block (no capacity reaching a neighbour), and it stays valid across
// calls that are not PeekBlock, WriteBlock or WriteWord.
func TestPeekBlockAliasing(t *testing.T) {
	m := NewMemory(0, 64)
	data := bytes.Repeat([]byte{0x5a}, 64)
	m.WriteBlock(7, data)
	m.WriteBlock(8, make([]byte, 64))
	for _, ba := range []uint64{7, 9} {
		b := m.PeekBlock(ba)
		if len(b) != 64 || cap(b) != 64 {
			t.Errorf("PeekBlock(%d): len %d cap %d, want 64/64", ba, len(b), cap(b))
		}
		want := bytes.Clone(b)
		m.FetchBlock(3)
		m.Access(0, 0, Read)
		if !bytes.Equal(b, want) {
			t.Errorf("PeekBlock(%d) result changed across FetchBlock/Access", ba)
		}
	}
}

// A reset Memory re-running the same traffic allocates nothing: Reset
// keeps the table and its chunks, which the re-run's blocks reuse.
func TestMemoryResetRerunAllocFree(t *testing.T) {
	m := NewMemory(0, 32)
	data := make([]byte, 32)
	run := func() {
		for ba := uint64(0); ba < 3000; ba += 3 {
			m.WriteBlock(ba*7, data)
			m.WriteWord(ba*5+1, 8, ba)
			m.PeekBlock(ba)
		}
		m.Reset()
	}
	run()
	if got := testing.AllocsPerRun(5, run); got != 0 {
		t.Errorf("reset re-run allocates %.1f objects, want 0", got)
	}
}
