package cpu

import (
	"testing"

	"repro/internal/isa"
)

// callReturnStream builds repeated call/return pairs to one callee.
func callReturnStream(pairs int) []isa.Inst {
	var insts []isa.Inst
	const callerPC, calleePC = 0x400000, 0x500000
	for i := 0; i < pairs; i++ {
		insts = append(insts,
			isa.Inst{PC: callerPC, Op: isa.OpIntALU},
			isa.Inst{PC: callerPC + 4, Op: isa.OpCall, Taken: true, Target: calleePC},
			isa.Inst{PC: calleePC, Op: isa.OpIntALU},
			isa.Inst{PC: calleePC + 4, Op: isa.OpReturn, Taken: true, Target: callerPC + 8},
			isa.Inst{PC: callerPC + 8, Op: isa.OpJump, Taken: true, Target: callerPC},
		)
	}
	return insts
}

func TestRASPredictsReturns(t *testing.T) {
	c := newTestCore(callReturnStream(500), &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if s.Branches == 0 {
		t.Fatal("no control instructions")
	}
	// After warmup (BTB learns call/jump targets, RAS pairs returns),
	// the stream is almost perfectly predictable.
	rate := float64(s.Mispredicts) / float64(s.Branches)
	if rate > 0.05 {
		t.Errorf("call/return mispredict rate %.3f, want < 0.05", rate)
	}
}

func TestReturnWithoutRASEntryMispredicts(t *testing.T) {
	// A bare return with an empty RAS must count as a misprediction but
	// still execute correctly.
	insts := []isa.Inst{
		{PC: 0x400000, Op: isa.OpIntALU},
		{PC: 0x400004, Op: isa.OpReturn, Taken: true, Target: 0x600000},
		{PC: 0x600000, Op: isa.OpIntALU},
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(100)
	if s.Instructions != 3 {
		t.Fatalf("committed %d, want 3", s.Instructions)
	}
	if s.Mispredicts == 0 {
		t.Error("cold return should mispredict")
	}
}

func TestLSQFullStalls(t *testing.T) {
	// A long miss-latency load stream overwhelms the 8-entry LSQ.
	insts := make([]isa.Inst, 200)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpLoad, Addr: uint64(0x1000000 + i*64), Size: 8}
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 40, storeLat: 1})
	s := c.Run(1 << 20)
	if s.LSQFull == 0 {
		t.Error("expected LSQ-full dispatch stalls with 40-cycle loads")
	}
	if s.Instructions != 200 {
		t.Errorf("committed %d, want 200", s.Instructions)
	}
}

func TestFPOpsUseFPUnits(t *testing.T) {
	// 8 independent FP divides on the single non-pipelined FP divider
	// must take at least 8*FPDivLat cycles.
	insts := make([]isa.Inst, 8)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpFPDiv}
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	min := 8 * DefaultConfig().FPDivLat
	if s.Cycles < min/2 {
		t.Errorf("cycles = %d, want >= %d for serialized FP divides", s.Cycles, min/2)
	}
	// Mixed FP ALU ops are pipelined: much higher throughput.
	insts2 := make([]isa.Inst, 400)
	for i := range insts2 {
		insts2[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpFPALU}
	}
	c2 := newTestCore(insts2, &fixedDCache{loadLat: 1, storeLat: 1})
	s2 := c2.Run(1 << 20)
	if ipc := s2.IPC(); ipc < 2 {
		t.Errorf("pipelined FP ALU IPC = %.2f, want >= 2", ipc)
	}
}

func TestJumpTargetsLearnedByBTB(t *testing.T) {
	// A repeated indirect-style jump to a fixed target becomes
	// predictable once the BTB warms.
	var insts []isa.Inst
	for i := 0; i < 300; i++ {
		insts = append(insts,
			isa.Inst{PC: 0x400000, Op: isa.OpIntALU},
			isa.Inst{PC: 0x400004, Op: isa.OpJump, Taken: true, Target: 0x400000},
		)
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if s.Mispredicts > 3 {
		t.Errorf("stable jump should be learned; mispredicts = %d", s.Mispredicts)
	}
}

func TestBranchTargetChangeMispredicts(t *testing.T) {
	// Same branch PC, alternating targets: the BTB can never settle, so
	// taken predictions keep missing on the target.
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		target := uint64(0x500000)
		if i%2 == 1 {
			target = 0x600000
		}
		insts = append(insts,
			isa.Inst{PC: 0x400000, Op: isa.OpIntALU},
			isa.Inst{PC: 0x400004, Op: isa.OpJump, Taken: true, Target: target},
			isa.Inst{PC: target, Op: isa.OpJump, Taken: true, Target: 0x400000},
		)
	}
	c := newTestCore(insts, &fixedDCache{loadLat: 1, storeLat: 1})
	s := c.Run(1 << 20)
	if s.Mispredicts < 10 {
		t.Errorf("alternating targets should keep mispredicting, got %d", s.Mispredicts)
	}
}

// mshrDCache misses everything with a long latency and reports misses.
type mshrDCache struct{ loads int }

func (m *mshrDCache) Load(_ uint64, _ uint64) uint64  { m.loads++; return 60 }
func (m *mshrDCache) Store(_ uint64, _ uint64) uint64 { return 1 }
func (m *mshrDCache) WouldHit(_ uint64) bool          { return false }

func TestMSHRLimitThrottlesMisses(t *testing.T) {
	insts := make([]isa.Inst, 400)
	for i := range insts {
		insts[i] = isa.Inst{PC: uint64(4 * i), Op: isa.OpLoad, Addr: uint64(0x1000000 + i*64), Size: 8}
	}
	run := func(mshrs int) (uint64, uint64) {
		cfg := DefaultConfig()
		cfg.MSHRs = mshrs
		cfg.MemPorts = 4
		c := New(cfg, &fillStream{insts: insts}, perfectICache{}, &mshrDCache{})
		s := c.Run(1 << 20)
		return s.Cycles, s.MSHRStalls
	}
	cyc1, stalls1 := run(1)
	cyc8, _ := run(8)
	if stalls1 == 0 {
		t.Error("MSHR=1 should record stalls on an all-miss stream")
	}
	if cyc1 <= cyc8 {
		t.Errorf("MSHR=1 (%d cycles) must be slower than MSHR=8 (%d)", cyc1, cyc8)
	}
	// Unlimited mode (0) must not stall at all.
	cfg := DefaultConfig()
	cfg.MSHRs = 0
	c := New(cfg, &fillStream{insts: insts}, perfectICache{}, &mshrDCache{})
	if s := c.Run(1 << 20); s.MSHRStalls != 0 {
		t.Errorf("unlimited MSHRs recorded %d stalls", s.MSHRStalls)
	}
}
