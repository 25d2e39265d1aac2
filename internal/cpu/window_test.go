package cpu

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/isa"
)

// checkWindow reports the first broken invariant of the instruction
// window: the cursors out of order or holding more than the ring or a
// stage's capacity, the LSQ or store counts not matching a recount of
// the RUU, or a waiting bit past the RUU's tail or on an issued entry.
func (c *Core) checkWindow() error {
	head, disp, fetch, drawn := c.headSeq, c.dispSeq, c.fetchSeq, c.drawnSeq
	if !(head <= disp && disp <= fetch && fetch <= drawn) {
		return fmt.Errorf("cursors out of order: head %d, disp %d, fetch %d, drawn %d", head, disp, fetch, drawn)
	}
	if drawn-head > uint64(len(c.win)) {
		return fmt.Errorf("window holds %d instructions in a ring of %d", drawn-head, len(c.win))
	}
	if disp-head > uint64(c.cfg.RUUSize) || fetch-disp > uint64(c.cfg.FetchQueue) || drawn-fetch > fetchBatch {
		return fmt.Errorf("stage over capacity: RUU %d, fetch queue %d, fetch buffer %d", disp-head, fetch-disp, drawn-fetch)
	}
	lsq, stores := 0, 0
	for s := head; s != disp; s++ {
		if op := c.insts[s&c.mask].Op; op.IsMem() {
			lsq++
			if op == isa.OpStore {
				stores++
			}
		}
	}
	if lsq != c.lsqCount || stores != c.storesInWindow {
		return fmt.Errorf("RUU holds %d memory ops and %d stores, counted %d and %d", lsq, stores, c.lsqCount, c.storesInWindow)
	}
	if lsq > c.cfg.LSQSize {
		return fmt.Errorf("LSQ holds %d of %d", lsq, c.cfg.LSQSize)
	}
	if n := disp - head; n < 64 && c.waiting>>n != 0 {
		return fmt.Errorf("waiting mask %#x has a bit at or past the RUU's %d entries", c.waiting, n)
	}
	for w := c.waiting; w != 0; w &= w - 1 {
		k := bits.TrailingZeros64(w)
		if s := head + uint64(k); c.win[s&c.mask].doneAt != neverDone {
			return fmt.Errorf("waiting bit %d marks seq %d, which has issued", k, s)
		}
	}
	return nil
}

// fillStream is the tests' Stream: it serves a fixed slice of
// instructions through both Fill and FillWarm, so fetch draws it in
// batches that wrap the window's ring, and ignores quotas. Reset rewinds
// it.
type fillStream struct {
	insts []isa.Inst
	pos   int
}

func (s *fillStream) Fill(buf []isa.Inst) int {
	n := copy(buf, s.insts[s.pos:])
	s.pos += n
	return n
}

func (s *fillStream) FillWarm(buf []isa.Inst) int { return s.Fill(buf) }
func (s *fillStream) Quota(uint64)                {}
func (s *fillStream) Reset()                      { s.pos = 0 }

// oneAtATime writes at most one instruction per Fill, so fetch draws
// the stream one instruction at a time; warming still fills in batches.
// Where a refill's first slice is the ring's last slot and the budget
// leaves room for more, refill calls Fill twice, but both draws lie below
// the commit budget, so the Run fetches both before it returns either way.
type oneAtATime struct{ *fillStream }

func (o oneAtATime) Fill(buf []isa.Inst) int { return o.fillStream.Fill(buf[:1]) }

// fuzzConfig builds a legal core from seven geometry bytes: every width
// from 1 to 8, RUU from 1 to 64, LSQ from 1 to 32, fetch queue from 1 to
// 16, 1 to 3 memory ports, and 0 (unlimited) to 7 MSHRs.
func fuzzConfig(g [7]byte) Config {
	cfg := DefaultConfig()
	cfg.FetchWidth = 1 + int(g[0]%8)
	cfg.IssueWidth = 1 + int(g[1]%8)
	cfg.CommitWidth = 1 + int(g[2]%8)
	cfg.RUUSize = 1 + int(g[3]%maxRUU)
	cfg.LSQSize = 1 + int(g[4]%32)
	cfg.FetchQueue = 1 + int(g[5]%16)
	cfg.MemPorts = 1 + int(g[6]%3)
	cfg.MSHRs = int(g[6] / 3 % 8)
	return cfg
}

// FuzzCoreWindow runs a random stream on a random legal core through
// alternating detailed and warming segments, and checks the window's
// invariants before every simulated cycle. A second core draws the same
// stream one instruction at a time: its Stats must match after every
// segment, so filling the ring in wrapping batches changes nothing.
func FuzzCoreWindow(f *testing.F) {
	f.Add(uint64(1), []byte{3, 3, 3, 15, 7, 7, 0}, uint16(0x5a5a))
	f.Add(uint64(2), []byte{7, 7, 7, 63, 31, 15, 1}, uint16(0xffff))
	f.Add(uint64(3), []byte{0, 0, 0, 3, 1, 0, 0}, uint16(0x1234))
	f.Fuzz(func(t *testing.T, seed uint64, geom []byte, plan uint16) {
		var g [7]byte
		copy(g[:], geom)
		cfg := fuzzConfig(g)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fuzzConfig built an invalid core: %v", err)
		}
		const n = 3_000
		insts := mixedStream(n, seed)
		batched, single := &fillStream{insts: insts}, &fillStream{insts: insts}

		var cores [2]*Core
		for i, s := range []Stream{batched, oneAtATime{single}} {
			cc := cfg
			cc.Halt = func() bool {
				c := cores[i]
				if err := c.checkWindow(); err != nil {
					t.Fatalf("cycle %d: %v", c.now, err)
				}
				if c.now > 400*n {
					t.Fatalf("cycle %d: no progress past %d instructions", c.now, c.stats.Instructions)
				}
				return false
			}
			cores[i] = New(cc, s, &skipICache{}, &skipDCache{})
		}

		// Eight segments, each 100 to 700 instructions long; plan's bits
		// choose which are detailed Runs and which warming.
		var target uint64
		for seg := 0; seg < 8; seg++ {
			target += 100 + 200*(uint64(plan>>(2*seg))&3)
			warm := plan>>seg&1 == 1 && seg > 0
			for _, c := range cores {
				if warm {
					c.RunWarming(target, 3, 2)
				} else {
					c.Run(target)
				}
				if err := c.checkWindow(); err != nil {
					t.Fatalf("segment %d: %v", seg, err)
				}
			}
			if a, b := cores[0].Stats(), cores[1].Stats(); a != b {
				t.Fatalf("segment %d: batched stats %+v, one by one %+v", seg, a, b)
			}
			if want := min(target, n); cores[0].Stats().Instructions != want {
				t.Fatalf("segment %d: committed %d, want %d", seg, cores[0].Stats().Instructions, want)
			}
		}
		if batched.pos != single.pos {
			t.Fatalf("batched core drew %d instructions, one by one %d", batched.pos, single.pos)
		}
	})
}
