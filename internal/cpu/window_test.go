package cpu

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// checkWindow reports the first broken invariant of the instruction
// window: the cursors out of order or holding more than the ring or a
// stage's capacity, the LSQ count not matching a recount of the RUU, or
// the wakeup state not matching one rebuilt from insts and win (see
// checkWakeup).
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
	lsq := 0
	for s := head; s != disp; s++ {
		if c.insts[s&c.mask].Op.IsMem() {
			lsq++
		}
	}
	if lsq != c.lsqCount {
		return fmt.Errorf("RUU holds %d memory ops, counted %d", lsq, c.lsqCount)
	}
	if lsq > c.cfg.LSQSize {
		return fmt.Errorf("LSQ holds %d of %d", lsq, c.cfg.LSQSize)
	}
	return c.checkWakeup()
}

// checkWakeup rebuilds the RUU's masks and wakeup state from the
// entries' instructions and doneAt and compares: waiting is the unissued
// entries, stores the stores, each unissued entry's consumers the
// waiting entries that name it as a source, and each waiting entry's
// pending count its distinct unissued producers, with known set exactly
// where that count is 0. A waiting entry's operandsAt is the latest
// doneAt of its issued producers still in the RUU, or, when a producer
// has since committed, a later cycle no later than now (a committed
// producer was done by then). No mask has a bit outside the RUU.
func (c *Core) checkWakeup() error {
	var waiting, known, stores uint64
	var consumers [maxRUU]uint64
	for s := c.headSeq; s != c.dispSeq; s++ {
		k := s & slotMask
		in := &c.insts[s&c.mask]
		if in.Op == isa.OpStore {
			stores |= 1 << k
		}
		if c.win[s&c.mask].doneAt != neverDone {
			continue
		}
		waiting |= 1 << k
		pending, latest := 0, uint64(0)
		for i, d := range [2]uint64{uint64(in.SrcDist1), uint64(in.SrcDist2)} {
			if d == 0 || d > s-c.headSeq || (i == 1 && in.SrcDist2 == in.SrcDist1) {
				continue
			}
			if done := c.win[(s-d)&c.mask].doneAt; done != neverDone {
				latest = max(latest, done)
			} else {
				consumers[(s-d)&slotMask] |= 1 << k
				pending++
			}
		}
		if int(c.pending[k]) != pending {
			return fmt.Errorf("seq %d waits on %d producers, counted %d", s, pending, c.pending[k])
		}
		if pending == 0 {
			known |= 1 << k
		}
		if got := c.operandsAt[k]; got != latest && !(got > latest && got <= c.now) {
			return fmt.Errorf("seq %d has operands at cycle %d, want %d (now %d)", s, got, latest, c.now)
		}
	}
	if ruu := c.ruu(); (c.waiting|c.known|c.stores)&^ruu != 0 {
		return fmt.Errorf("masks waiting %#x, known %#x, stores %#x have a bit outside the RUU %#x", c.waiting, c.known, c.stores, ruu)
	}
	for k := range consumers {
		if consumers[k] != c.consumers[k] {
			return fmt.Errorf("slot %d has consumers %#x, want %#x", k, c.consumers[k], consumers[k])
		}
	}
	switch {
	case waiting != c.waiting:
		return fmt.Errorf("waiting mask %#x, want %#x (the unissued entries)", c.waiting, waiting)
	case known != c.known:
		return fmt.Errorf("known mask %#x, want %#x", c.known, known)
	case stores != c.stores:
		return fmt.Errorf("stores mask %#x, want %#x", c.stores, stores)
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
