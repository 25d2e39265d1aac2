package energy

import (
	"math"
	"testing"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPricing(t *testing.T) {
	p := Params{L1Read: 1, L1Write: 2, L2Read: 4, L2Write: 8, ParityFrac: 0.1, ECCFrac: 0.3,
		RCacheRead: 0.5, RCacheWrite: 0.25, MemRead: 16, MemWrite: 32}
	c := Counts{L1Reads: 10, L1Writes: 5, L2Reads: 3, L2Writes: 2, ParityOps: 100, ECCOps: 50,
		RCacheReads: 4, RCacheWrites: 8, MemReads: 1, MemWrites: 2}

	if got := p.L1Energy(c); !almostEqual(got, 10*1+5*2) {
		t.Errorf("L1Energy = %g, want 20", got)
	}
	if got := p.L2Energy(c); !almostEqual(got, 3*4+2*8) {
		t.Errorf("L2Energy = %g, want 28", got)
	}
	// Checks priced against L1Read: 100*0.1*1 + 50*0.3*1 = 25.
	if got := p.CheckEnergy(c); !almostEqual(got, 25) {
		t.Errorf("CheckEnergy = %g, want 25", got)
	}
	if got := p.RCacheEnergy(c); !almostEqual(got, 4*0.5+8*0.25) {
		t.Errorf("RCacheEnergy = %g, want 4", got)
	}
	if got := p.MemEnergy(c); !almostEqual(got, 1*16+2*32) {
		t.Errorf("MemEnergy = %g, want 80", got)
	}
}

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.L1Read <= 0 || p.L2Read <= p.L1Read {
		t.Errorf("defaults should have 0 < L1Read < L2Read: %+v", p)
	}
	if p.ParityFrac >= p.ECCFrac {
		t.Errorf("parity must be cheaper than ECC: %+v", p)
	}
}

func TestWithCheckCosts(t *testing.T) {
	p := DefaultParams().WithCheckCosts(0.10, 0.30)
	if p.ParityFrac != 0.10 || p.ECCFrac != 0.30 {
		t.Errorf("WithCheckCosts not applied: %+v", p)
	}
	// Original default untouched.
	if DefaultParams().ParityFrac != 0.15 {
		t.Error("WithCheckCosts must not mutate the default")
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{L1Reads: 1, L1Writes: 2, L2Reads: 3, L2Writes: 4, ParityOps: 5, ECCOps: 6}
	b := Counts{L1Reads: 10, L1Writes: 20, L2Reads: 30, L2Writes: 40, ParityOps: 50, ECCOps: 60}
	a.Add(b)
	want := Counts{L1Reads: 11, L1Writes: 22, L2Reads: 33, L2Writes: 44, ParityOps: 55, ECCOps: 66}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestECCCostsMoreThanParity(t *testing.T) {
	// The paper's central energy argument: ECC verification costs more
	// than parity per operation.
	p := DefaultParams()
	parity, ecc := p.CheckEnergy(Counts{ParityOps: 1000}), p.CheckEnergy(Counts{ECCOps: 1000})
	if parity >= ecc {
		t.Errorf("parity energy %g should be below ECC energy %g", parity, ecc)
	}
}
