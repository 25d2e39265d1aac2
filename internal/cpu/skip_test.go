package cpu

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/workload"
)

// The core jumps its clock over idle cycles. These tests run every stream
// twice — once forced to step cycle by cycle (a hook that asks for every
// cycle makes every cycle busy) and once free to skip — and require the
// two runs to be indistinguishable: identical Stats, and identical
// (cycle, address) sequences of instruction- and data-cache calls.

// access is one cache call as the memory side saw it.
type access struct {
	now, addr uint64
	store     bool
}

// skipDCache is a recording data cache whose hit/miss pattern is a pure
// function of the address and a phase bit. The phase is flipped by the
// test's hook, so a hook that changes cache state between cycles changes
// what WouldHit reports to a load blocked on MSHRs.
type skipDCache struct {
	log   []access
	phase uint64
}

func (d *skipDCache) hit(addr uint64) bool { return ((addr>>6)+d.phase)%3 != 0 }

func (d *skipDCache) Load(now, addr uint64) uint64 {
	d.log = append(d.log, access{now, addr, false})
	if d.hit(addr) {
		return 2
	}
	return 80
}

func (d *skipDCache) Store(now, addr uint64) uint64 {
	d.log = append(d.log, access{now, addr, true})
	if (addr>>6)%7 == 0 {
		return 6 // a full write buffer holds commit
	}
	return 1
}

func (d *skipDCache) WouldHit(addr uint64) bool { return d.hit(addr) }

// skipICache misses on every fifth 32-byte block and records its calls.
type skipICache struct{ log []access }

func (c *skipICache) Access(now, addr uint64, _ cache.Kind) uint64 {
	c.log = append(c.log, access{now, addr, false})
	if (addr/32)%5 == 0 {
		return 20
	}
	return 1
}

// mixedStream is a deterministic pseudo-random stream that exercises every
// stall source: icache misses (PCs spread over many blocks), mispredicted
// branches (random directions and targets), long-latency loads beyond the
// MSHR limit, non-pipelined integer and FP divides, stores that stall
// commit, loads behind same-word stores, and dependence chains.
func mixedStream(n int, seed uint64) []isa.Inst {
	x := seed*2654435761 + 1
	rnd := func(k uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % k
	}
	out := make([]isa.Inst, n)
	pc := uint64(0x400000)
	for i := range out {
		in := isa.Inst{PC: pc, SrcDist1: uint16(rnd(12)), SrcDist2: uint16(rnd(30))}
		pc += 4
		switch r := rnd(100); {
		case r < 25:
			in.Op = isa.OpLoad
			in.Addr, in.Size = 0x1000000+rnd(256)*64+rnd(8)*8, 8
		case r < 35:
			in.Op = isa.OpStore
			in.Addr, in.Size = 0x1000000+rnd(256)*64+rnd(8)*8, 8
		case r < 45:
			in.Op = isa.OpBranch
			in.Taken = rnd(3) != 0
			if in.Taken {
				in.Target = 0x400000 + rnd(1024)*4
				pc = in.Target
			}
		case r < 49:
			in.Op = isa.OpIntDiv
		case r < 52:
			in.Op = isa.OpFPDiv
		case r < 57:
			in.Op = isa.OpIntMul
		case r < 63:
			in.Op = isa.OpFPALU
		case r < 66:
			in.Op = isa.OpFPMul
		case r < 68:
			in.Op = isa.OpCall
			in.Taken, in.Target = true, 0x500000+rnd(64)*64
			pc = in.Target
		case r < 70:
			in.Op = isa.OpReturn
			in.Taken, in.Target = true, 0x400000+rnd(1024)*4
			pc = in.Target
		default:
			in.Op = isa.OpIntALU
		}
		out[i] = in
	}
	return out
}

// loadChain is a memory-bound stream: every load depends on the one
// before, so the window sits idle for each load's full latency.
func loadChain(n int) []isa.Inst {
	out := make([]isa.Inst, n)
	for i := range out {
		out[i] = isa.Inst{PC: 0x400000 + uint64(4*(i%64)), Op: isa.OpLoad,
			Addr: 0x1000000 + uint64(i)*64, Size: 8, SrcDist1: 1}
	}
	return out
}

// skipRun is one traced execution.
type skipRun struct {
	stats  Stats
	dlog   []access
	ilog   []access
	polls  uint64 // Halt polls: one per simulated (not skipped) cycle
	hooked uint64 // hook invocations
}

// phaseHook flips the data cache's phase every period cycles, catching up
// on a jumped clock as the simulator's fault hook does. step forces the
// core to simulate every cycle.
func phaseHook(d *skipDCache, period uint64, step bool, calls *uint64) func(uint64) uint64 {
	next := period
	return func(now uint64) uint64 {
		*calls++
		for now >= next {
			d.phase ^= 1
			next += period
		}
		if step {
			return now + 1
		}
		return next
	}
}

// traceRun executes the stream: a detailed run to `first` committed
// instructions, a functional-warming stretch to `warm` (0 = none; it
// drains the pipeline first), and a detailed run to `last` or the end of
// the stream.
func traceRun(cfg Config, stream Stream, step bool, first, warm, last uint64) skipRun {
	var r skipRun
	d := &skipDCache{}
	ic := &skipICache{}
	cfg.EachCycle = phaseHook(d, 5000, step, &r.hooked)
	cfg.Halt = func() bool { r.polls++; return false }
	c := New(cfg, stream, ic, d)
	c.Run(first)
	if warm > 0 {
		s := c.Stats()
		c.RunWarming(warm, s.Cycles, s.Instructions)
	}
	r.stats = c.Run(last)
	r.dlog, r.ilog = d.log, ic.log
	return r
}

func compareRuns(t *testing.T, stepped, skipped skipRun) {
	t.Helper()
	if stepped.stats != skipped.stats {
		t.Fatalf("stats differ\nstepped %+v\nskipped %+v", stepped.stats, skipped.stats)
	}
	for _, logs := range []struct {
		name string
		a, b []access
	}{{"dcache", stepped.dlog, skipped.dlog}, {"icache", stepped.ilog, skipped.ilog}} {
		name, a, b := logs.name, logs.a, logs.b
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("%s call %d: stepped %+v, skipped %+v", name, i, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			t.Fatalf("%s calls: stepped %d, skipped %d", name, len(a), len(b))
		}
	}
}

func TestSkippedCyclesMatchStepped(t *testing.T) {
	narrow := DefaultConfig()
	narrow.MSHRs = 2
	wide := DefaultConfig()
	wide.MemPorts, wide.MSHRs = 2, 0
	configs := []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"mshr2", narrow}, {"ports2-unlimited", wide}}

	var seen Stats // summed over every case: each stall source must occur
	for _, tc := range configs {
		for seed := uint64(1); seed <= 3; seed++ {
			insts := mixedStream(20_000, seed)
			for _, warm := range []uint64{0, 12_000} {
				t.Run(fmt.Sprintf("%s/seed%d/warm%d", tc.name, seed, warm), func(t *testing.T) {
					stepped := traceRun(tc.cfg, &fillStream{insts: insts}, true, 6_000, warm, 1<<40)
					skipped := traceRun(tc.cfg, &fillStream{insts: insts}, false, 6_000, warm, 1<<40)
					compareRuns(t, stepped, skipped)
					seen.Mispredicts += skipped.stats.Mispredicts
					seen.FetchStalls += skipped.stats.FetchStalls
					seen.RUUFull += skipped.stats.RUUFull
					seen.LSQFull += skipped.stats.LSQFull
					seen.MSHRStalls += skipped.stats.MSHRStalls
					if got := skipped.stats.Instructions; got != uint64(len(insts)) {
						t.Fatalf("committed %d of %d: the run must end with the stream, drained", got, len(insts))
					}
					if warm == 0 && stepped.polls != stepped.stats.Cycles {
						t.Fatalf("stepped run simulated %d of %d cycles", stepped.polls, stepped.stats.Cycles)
					}
					if skipped.polls >= stepped.polls {
						t.Errorf("skipping simulated %d cycles, stepping %d: nothing was skipped",
							skipped.polls, stepped.polls)
					}
					if skipped.hooked >= stepped.hooked {
						t.Errorf("hook ran %d times skipping, %d stepping", skipped.hooked, stepped.hooked)
					}
				})
			}
		}
	}
	if seen.Mispredicts == 0 || seen.FetchStalls == 0 || seen.RUUFull == 0 || seen.LSQFull == 0 || seen.MSHRStalls == 0 {
		t.Errorf("streams leave a stall source unexercised: %+v", seen)
	}
}

// TestSkippedCyclesMatchSteppedWorkloads repeats the identity check on
// every benchmark profile's generated stream, with a sampling-style
// warming stretch in the middle.
func TestSkippedCyclesMatchSteppedWorkloads(t *testing.T) {
	for _, p := range workload.Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			stepped := traceRun(DefaultConfig(), &quotaTally{Generator: workload.MustNew(p, 1)}, true, 10_000, 20_000, 30_000)
			skipped := traceRun(DefaultConfig(), &quotaTally{Generator: workload.MustNew(p, 1)}, false, 10_000, 20_000, 30_000)
			compareRuns(t, stepped, skipped)
		})
	}
}

func TestMemoryBoundRunSkips(t *testing.T) {
	stepped := traceRun(DefaultConfig(), &fillStream{insts: loadChain(500)}, true, 1<<40, 0, 1<<40)
	skipped := traceRun(DefaultConfig(), &fillStream{insts: loadChain(500)}, false, 1<<40, 0, 1<<40)
	compareRuns(t, stepped, skipped)
	// A serial chain of 80-cycle misses leaves the pipeline idle almost
	// all the time: the skipping core simulates a small fraction of it.
	if skipped.polls*10 > skipped.stats.Cycles {
		t.Errorf("simulated %d of %d cycles on a serial miss chain", skipped.polls, skipped.stats.Cycles)
	}
}
