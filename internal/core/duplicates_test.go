package core

import (
	"testing"

	"repro/internal/energy"
	"repro/internal/rcache"
)

func dupCache(t *testing.T, scheme Scheme) (*Cache, *rcache.Cache) {
	t.Helper()
	d := rcache.New(512, 2, 64) // 4 sets of duplicates
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = scheme
		cfg.Duplicates = d
	})
	return c, d
}

func TestDuplicateDepositedOnFillAndStore(t *testing.T) {
	c, d := dupCache(t, BaseP())
	a := addrOfBlock(1)
	c.Load(0, a) // fill deposits
	if !d.Contains(1) {
		t.Error("fill should deposit a duplicate")
	}
	b := addrOfBlock(2)
	c.Store(1, b) // store (after write-allocate) deposits
	if !d.Contains(2) {
		t.Error("store should deposit a duplicate")
	}
}

func TestDuplicateRecoversDirtyParityError(t *testing.T) {
	// The Kim & Somani baseline: BaseP alone loses dirty data, BaseP with
	// an r-cache recovers it.
	c, _ := dupCache(t, BaseP())
	a := addrOfBlock(1)
	c.Store(0, a)
	want, _ := c.ReadWord(a)
	c.CorruptPrimary(a, 3)
	lat := c.Load(1, a)
	if lat != 2 {
		t.Errorf("duplicate recovery latency = %d, want 2", lat)
	}
	got, _ := c.ReadWord(a)
	if got != want {
		t.Errorf("recovered %#x, want %#x", got, want)
	}
	s := c.Stats()
	if s.RecoveredByDuplicate != 1 || s.UnrecoverableLoads != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReadHitsWithDuplicate == 0 {
		t.Error("duplicate coverage not counted")
	}
}

func TestDuplicateEvictedMeansLoss(t *testing.T) {
	c, d := dupCache(t, BaseP())
	a := addrOfBlock(1)
	c.Store(0, a)
	// Push the duplicate out of its r-cache set (4-set, 2-way r-cache:
	// blocks 1, 5, 9 share r-set 1).
	c.Store(1, addrOfBlock(5))
	c.Store(2, addrOfBlock(9))
	if d.Contains(1) {
		t.Fatal("setup: duplicate of block 1 should be evicted")
	}
	c.CorruptPrimary(a, 3)
	c.Load(3, a)
	if got := c.Stats().UnrecoverableLoads; got != 1 {
		t.Errorf("without a duplicate the dirty loss stands, got %d", got)
	}
}

func TestICRBeatsDuplicateCacheOnEnergy(t *testing.T) {
	// The paper's §5.2 argument against [11]: ICR achieves duplication
	// without a separate array probed on every load.
	runCounts := func(withDup bool) energy.Counts {
		var d *rcache.Cache
		if withDup {
			d = rcache.New(512, 2, 64)
		}
		c, _ := testCache(t, func(cfg *Config) {
			if withDup {
				cfg.Scheme = BaseP()
				cfg.Duplicates = d
			}
		})
		for i := 0; i < 64; i++ {
			c.Store(uint64(2*i), addrOfBlock(i%6))
			c.Load(uint64(2*i+1), addrOfBlock(i%6))
		}
		return c.EnergyCounts()
	}
	p := energy.DefaultParams()
	icr := runCounts(false)
	dup := runCounts(true)
	if p.RCacheEnergy(dup) == 0 {
		t.Fatal("r-cache energy not accounted")
	}
	if p.RCacheEnergy(icr) != 0 {
		t.Fatal("ICR should not pay r-cache energy")
	}
}
