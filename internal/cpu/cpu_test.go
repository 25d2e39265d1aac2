package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/workload"
)

// fixedDCache is a DataCache with constant latencies. It counts its
// calls and keeps the cycle of the last load and the last store.
type fixedDCache struct {
	loadLat, storeLat   uint64
	loads, stores       int
	lastLoad, lastStore uint64
}

func (f *fixedDCache) Load(now uint64, _ uint64) uint64 {
	f.loads++
	f.lastLoad = now
	return f.loadLat
}

func (f *fixedDCache) Store(now uint64, _ uint64) uint64 {
	f.stores++
	f.lastStore = now
	return f.storeLat
}

// perfectICache never misses.
type perfectICache struct{}

func (perfectICache) Access(_ uint64, _ uint64, _ cache.Kind) uint64 { return 1 }

func newTestCore(insts []isa.Inst, d DataCache) *Core {
	return New(DefaultConfig(), &fillStream{insts: insts}, perfectICache{}, d)
}

// seqInsts builds n independent 1-cycle ALU instructions.
func seqInsts(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{PC: 0x400000 + uint64(4*i), Op: isa.OpIntALU}
	}
	return out
}

func TestRunsToCompletion(t *testing.T) {
	c := newTestCore(seqInsts(100), &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1000)
	if s.Instructions != 100 {
		t.Fatalf("committed %d, want 100", s.Instructions)
	}
	if s.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
}

func TestMaxInstructionsBound(t *testing.T) {
	c := newTestCore(seqInsts(1000), &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(100)
	if s.Instructions != 100 {
		t.Fatalf("committed %d, want exactly 100", s.Instructions)
	}
}

func TestIndependentALUIPC(t *testing.T) {
	// 4-wide machine on independent 1-cycle ops: IPC should approach the
	// commit width (bounded by the pipeline fill).
	c := newTestCore(seqInsts(4000), &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if ipc := s.IPC(); ipc < 3.0 {
		t.Errorf("IPC = %.2f, want near 4 for independent ALU ops", ipc)
	}
}

func TestSerialDependenceChainIPC(t *testing.T) {
	// Every op depends on its predecessor: IPC cannot exceed ~1.
	insts := seqInsts(2000)
	for i := range insts {
		insts[i].SrcDist1 = 1
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if ipc := s.IPC(); ipc > 1.05 {
		t.Errorf("IPC = %.2f, serialized chain must not exceed 1", ipc)
	}
}

func TestLoadLatencySlowsDependentChain(t *testing.T) {
	// A fully serialized load -> ALU -> load -> ... chain: each load
	// depends on the previous ALU result (address computation), so the
	// load latency sits on the critical path. This is the BaseP (1-cycle
	// loads) vs BaseECC (2-cycle loads) effect.
	mk := func(lat uint64) uint64 {
		insts := make([]isa.Inst, 3000)
		for i := range insts {
			if i%2 == 0 {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpLoad, Addr: 0x1000000 + uint64(i*8), Size: 8, SrcDist1: 1}
			} else {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpIntALU, SrcDist1: 1}
			}
		}
		c := newTestCore(insts, &fixedDCache{loadLat: lat, storeLat: 1})
		return c.Run(1 << 20).Cycles
	}
	c1, c2 := mk(1), mk(2)
	if c2 <= c1 {
		t.Errorf("2-cycle loads (%d cycles) must be slower than 1-cycle (%d)", c2, c1)
	}
	slowdown := float64(c2) / float64(c1)
	if slowdown < 1.2 || slowdown > 2.1 {
		t.Errorf("slowdown %.2f out of plausible band", slowdown)
	}
}

func TestIndependentLoadsHideLatency(t *testing.T) {
	// Independent loads overlap: a 1-cycle latency increase must cost far
	// less than on the serialized chain above (latency tolerance of the
	// out-of-order window — why the paper's ICR-*-PP schemes are not 2x
	// slower despite 2-cycle loads). Give the core enough dL1 ports that
	// bandwidth is not the limiter.
	mk := func(lat uint64) uint64 {
		insts := make([]isa.Inst, 3000)
		for i := range insts {
			if i%2 == 0 {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpLoad, Addr: 0x1000000 + uint64(i*8), Size: 8}
			} else {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpIntALU}
			}
		}
		cfg := DefaultConfig()
		cfg.MemPorts = 4
		c := New(cfg, &fillStream{insts: insts}, perfectICache{}, &fixedDCache{loadLat: lat, storeLat: 1})
		return c.Run(1 << 20).Cycles
	}
	c1, c2 := mk(1), mk(2)
	overhead := float64(c2)/float64(c1) - 1
	if overhead > 0.25 {
		t.Errorf("independent loads should hide most latency, overhead %.2f", overhead)
	}
}

func TestMispredictionPenalty(t *testing.T) {
	// A loop whose branch direction is pseudo-random must run slower than
	// the same loop always taken: the predictors learn the biased case
	// (stable PC and target) but not the random one.
	mk := func(random bool) (cycles uint64, mispredicts uint64) {
		insts := make([]isa.Inst, 0, 4000)
		const bodyPC, brPC = 0x400000, 0x400004
		for i := 0; i < 2000; i++ {
			insts = append(insts, isa.Inst{PC: bodyPC, Op: isa.OpIntALU})
			taken := true
			if random {
				taken = (i*2654435761)%7 < 3
			}
			target := uint64(bodyPC)
			if !taken {
				target = 0
			}
			insts = append(insts, isa.Inst{PC: brPC, Op: isa.OpBranch, Taken: taken, Target: target})
		}
		c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
		s := c.Run(1 << 20)
		if s.Branches == 0 {
			t.Fatal("no branches counted")
		}
		return s.Cycles, s.Mispredicts
	}
	randCycles, randMiss := mk(true)
	biasCycles, biasMiss := mk(false)
	if randCycles <= biasCycles {
		t.Errorf("unpredictable branches (%d cycles) must cost more than biased (%d)", randCycles, biasCycles)
	}
	if biasMiss*10 >= randMiss {
		t.Errorf("biased mispredicts (%d) should be far below random (%d)", biasMiss, randMiss)
	}
}

func TestStoreStallHoldsCommit(t *testing.T) {
	// storeLat > 1 models a full write-through buffer: it must stretch
	// execution.
	mk := func(lat uint64) uint64 {
		insts := make([]isa.Inst, 2000)
		for i := range insts {
			if i%4 == 0 {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpStore, Addr: uint64(0x2000000 + i*64), Size: 8}
			} else {
				insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpIntALU}
			}
		}
		c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: lat})
		return c.Run(1 << 20).Cycles
	}
	fast, slow := mk(1), mk(8)
	if slow <= fast {
		t.Errorf("stalling stores (%d cycles) must be slower than buffered (%d)", slow, fast)
	}
}

func TestLoadWaitsForConflictingStore(t *testing.T) {
	// store to X, then load from X: the load must not issue before the
	// store commits. We detect ordering via the data cache call counts.
	d := &orderTrackingDCache{}
	insts := []isa.Inst{
		{PC: 0, Op: isa.OpStore, Addr: 0x1000, Size: 8},
		{PC: 4, Op: isa.OpLoad, Addr: 0x1000, Size: 8},
	}
	c := newTestCore(insts, d)
	c.Run(100)
	if len(d.events) != 2 {
		t.Fatalf("expected 2 cache events, got %d", len(d.events))
	}
	if d.events[0] != "store" || d.events[1] != "load" {
		t.Errorf("events = %v, want store before load", d.events)
	}
}

// TestStoreLoadDisambiguation pins the same-word rule a load obeys: it
// waits for every older, uncommitted store to its 8-byte word and for no
// other store. Each stream is a divide, then a store whose data depends
// on it, so the store commits only after the divide's 20 cycles, and one
// load; the load issues the cycle its Load call records and the store
// commits the cycle its Store call records. Every case runs with and
// without 62 independent instructions in front, which puts the store
// and the load on either side of a multiple of 64 in seq order.
func TestStoreLoadDisambiguation(t *testing.T) {
	const store, sameWord, nextWord = 0x1000, 0x1004, 0x1008
	// run returns the cycles at which the load issued and the store
	// committed. With storeOp an IntALU op stands in for the store, and
	// with loadFirst the load comes before the store in program order.
	run := func(pad int, loadAddr uint64, storeOp isa.Op, loadFirst bool) (loadAt, storeAt uint64) {
		insts := seqInsts(pad)
		st := isa.Inst{Op: storeOp, Addr: store, Size: 8, SrcDist1: 1}
		ld := isa.Inst{Op: isa.OpLoad, Addr: loadAddr, Size: 8}
		insts = append(insts, isa.Inst{Op: isa.OpIntDiv})
		if loadFirst {
			st.SrcDist1 = 2
			insts = append(insts, ld, st)
		} else {
			insts = append(insts, st, ld)
		}
		for i := range insts {
			insts[i].PC = 0x400000 + uint64(4*i)
		}
		d := &fixedDCache{loadLat: 1, storeLat: 1}
		// A load that waited for a younger store would never issue: halt
		// such a run instead of spinning.
		var c *Core
		cfg := DefaultConfig()
		cfg.Halt = func() bool { return c.now > 1000 }
		c = New(cfg, &fillStream{insts: insts}, perfectICache{}, d)
		if s := c.Run(1 << 20); s.Instructions != uint64(len(insts)) {
			t.Fatalf("pad %d: committed %d of %d", pad, s.Instructions, len(insts))
		}
		return d.lastLoad, d.lastStore
	}
	for _, pad := range []int{0, 62} {
		// Where the load issues with no store in the stream at all.
		alone, _ := run(pad, sameWord, isa.OpIntALU, false)

		loadAt, storeAt := run(pad, sameWord, isa.OpStore, false)
		if loadAt < storeAt || loadAt <= alone {
			t.Errorf("pad %d: a load behind a store to its word issued at cycle %d, the store committed at %d", pad, loadAt, storeAt)
		}
		loadAt, storeAt = run(pad, nextWord, isa.OpStore, false)
		if loadAt != alone || loadAt >= storeAt {
			t.Errorf("pad %d: a load behind a store to the next word issued at cycle %d, want %d (the store committed at %d)", pad, loadAt, alone, storeAt)
		}
		aloneFirst, _ := run(pad, sameWord, isa.OpIntALU, true)
		loadAt, storeAt = run(pad, sameWord, isa.OpStore, true)
		if loadAt != aloneFirst || loadAt >= storeAt {
			t.Errorf("pad %d: a load ahead of a store to its word issued at cycle %d, want %d (the store committed at %d)", pad, loadAt, aloneFirst, storeAt)
		}
	}
}

// A zero-latency result is ready in the cycle it issues, so a consumer
// waiting only on it issues in that same cycle, and a consumer of that
// one the cycle after.
func TestZeroLatencyWakesInCycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IntMulLat = 0
	insts := []isa.Inst{
		{PC: 0, Op: isa.OpIntMul},
		{PC: 4, Op: isa.OpIntALU, SrcDist1: 1},
		{PC: 8, Op: isa.OpIntALU, SrcDist1: 1, SrcDist2: 2},
	}
	c := New(cfg, &fillStream{insts: insts}, perfectICache{}, &fixedDCache{loadLat: 1, storeLat: 1})
	c.Run(1 << 20)
	mul, alu, next := c.win[0].doneAt, c.win[1].doneAt, c.win[2].doneAt
	if alu != mul+1 || next != mul+2 {
		t.Errorf("results at cycles %d, %d and %d, want %d, %d and %d", mul, alu, next, mul, mul+1, mul+2)
	}
}

type orderTrackingDCache struct{ events []string }

func (o *orderTrackingDCache) Load(_ uint64, _ uint64) uint64 {
	o.events = append(o.events, "load")
	return 1
}

func (o *orderTrackingDCache) Store(_ uint64, _ uint64) uint64 {
	o.events = append(o.events, "store")
	return 1
}

func TestDivNotPipelined(t *testing.T) {
	// Back-to-back independent divides must serialize on the single
	// divider: >= divLat apart.
	insts := make([]isa.Inst, 20)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpIntDiv}
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	minCycles := uint64(len(insts)) * DefaultConfig().IntDivLat
	if s.Cycles < minCycles/2 {
		t.Errorf("cycles = %d, want >= %d for serialized divides", s.Cycles, minCycles/2)
	}
}

func TestICacheMissesStallFetch(t *testing.T) {
	mem := cache.NewMemory(50, 32)
	il1 := cache.New(cache.Config{
		Name: "il1", Size: 512, Assoc: 1, BlockSize: 32,
		HitLatency: 1, Next: mem,
	})
	// Code footprint far beyond 512B: constant icache misses.
	insts := make([]isa.Inst, 3000)
	for i := range insts {
		insts[i] = isa.Inst{PC: 0x400000 + uint64(4*i), Op: isa.OpIntALU}
	}
	c := New(DefaultConfig(), &fillStream{insts: insts}, il1, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)

	c2 := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s2 := c2.Run(1 << 20)
	if s.Cycles <= s2.Cycles {
		t.Errorf("icache misses (%d cycles) must cost more than perfect icache (%d)", s.Cycles, s2.Cycles)
	}
	if il1.Stats().FetchMisses == 0 {
		t.Error("expected icache misses")
	}
}

func TestWorkloadDrivenSmoke(t *testing.T) {
	// Run every benchmark profile briefly through the core: no panics,
	// sane IPC, nonzero memory traffic.
	for _, p := range workload.Profiles() {
		g := workload.MustNew(p, 1)
		d := &fixedDCache{loadLat: 1, storeLat: 1}
		c := New(DefaultConfig(), &quotaTally{Generator: g}, perfectICache{}, d)
		s := c.Run(20000)
		if s.Instructions != 20000 {
			t.Errorf("%s: committed %d, want 20000", p.Name, s.Instructions)
		}
		ipc := s.IPC()
		if ipc < 0.1 || ipc > 4.0 {
			t.Errorf("%s: IPC %.2f out of range", p.Name, ipc)
		}
		if d.loads == 0 || d.stores == 0 {
			t.Errorf("%s: no memory traffic (loads=%d stores=%d)", p.Name, d.loads, d.stores)
		}
		if s.Branches == 0 {
			t.Errorf("%s: no branches", p.Name)
		}
		mr := float64(s.Mispredicts) / float64(s.Branches)
		if mr > 0.5 {
			t.Errorf("%s: mispredict rate %.2f implausible", p.Name, mr)
		}
	}
}

func TestEachCycleHook(t *testing.T) {
	// A hook that asks for every cycle runs on every cycle.
	cfg := DefaultConfig()
	var calls uint64
	cfg.EachCycle = func(now uint64) uint64 { calls++; return now + 1 }
	c := New(cfg, &fillStream{insts: seqInsts(100)}, perfectICache{}, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if calls != s.Cycles {
		t.Errorf("hook called %d times for %d cycles", calls, s.Cycles)
	}

	// A hook with a period runs exactly at the cycles it asks for, even
	// across the idle stretches of a memory-bound stream.
	const period = 37
	cfg = DefaultConfig()
	var at []uint64
	cfg.EachCycle = func(now uint64) uint64 { at = append(at, now); return now + period }
	c = New(cfg, &fillStream{insts: loadChain(200)}, perfectICache{}, &fixedDCache{loadLat: 40, storeLat: 1})
	s = c.Run(1 << 20)
	if want := (s.Cycles + period - 1) / period; uint64(len(at)) != want {
		t.Fatalf("hook ran %d times in %d cycles, want %d", len(at), s.Cycles, want)
	}
	for i, now := range at {
		if now != uint64(i)*period {
			t.Fatalf("call %d at cycle %d, want %d", i, now, uint64(i)*period)
		}
	}

	// A zero FetchWidth selects the Table 1 core but keeps the hooks: the
	// hook still runs, and Halt still stops the run.
	calls = 0
	halt := false
	cfg = Config{
		EachCycle: func(now uint64) uint64 { calls++; halt = now >= 10; return now + 1 },
		Halt:      func() bool { return halt },
	}
	c = New(cfg, &fillStream{insts: seqInsts(1000)}, perfectICache{}, &fixedDCache{loadLat: 1, storeLat: 1})
	if s = c.Run(1 << 20); calls != 11 || s.Cycles != 11 {
		t.Errorf("defaulted core: hook called %d times in %d cycles, want a halt after 11", calls, s.Cycles)
	}
}

func TestStatsIPCZeroSafe(t *testing.T) {
	var s Stats
	if s.IPC() != 0 {
		t.Error("IPC on zero stats should be 0")
	}
}
