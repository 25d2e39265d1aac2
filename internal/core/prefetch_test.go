package core

import "testing"

func TestAdaptiveDecayLearnsAccessRhythm(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Decay = Adaptive
		cfg.Repl.Victim = DeadOnly
	})
	// Train block 5 with a ~100-cycle access rhythm.
	for i := uint64(0); i < 20; i++ {
		c.Load(i*100, addrOfBlock(5))
		c.Load(i*100+1, addrOfBlock(13))
	}
	// 150 cycles after its last access (< 4x gap): still live, so a
	// replica targeting set 5 fails.
	c.Store(1901+150, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("line within its rhythm must be live (replica count %d)", got)
	}
	// 1000 cycles after (> 4x gap): dead, replica succeeds.
	c.Store(1901+1000, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Errorf("line idle past 4x its gap must be dead (replica count %d)", got)
	}
}

func TestAdaptiveDecayFastLinesDieFast(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Decay = Adaptive
	})
	// Back-to-back accesses: tiny gap, so the line dies quickly after use.
	c.Load(100, addrOfBlock(5))
	c.Load(101, addrOfBlock(5))
	c.Load(102, addrOfBlock(13))
	c.Load(103, addrOfBlock(13))
	// 500 cycles later both are long past 4x their (floored) gap.
	c.Store(600, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Errorf("burst-accessed idle lines should be dead (replica count %d)", got)
	}
}

func TestPrefetchIntoDeadFillsNextBlock(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = BaseP()
		cfg.PrefetchIntoDead = true
	})
	c.Load(0, addrOfBlock(1))
	if !c.HasPrimary(addrOfBlock(2)) {
		t.Fatal("next block should have been prefetched")
	}
	s := c.Stats()
	if s.PrefetchFills != 1 {
		t.Errorf("PrefetchFills = %d, want 1", s.PrefetchFills)
	}
	// Demand hit on the prefetched block counts once.
	if lat := c.Load(1, addrOfBlock(2)); lat != 1 {
		t.Errorf("prefetched block should hit (lat %d)", lat)
	}
	s = c.Stats()
	if s.PrefetchHits != 1 {
		t.Errorf("PrefetchHits = %d, want 1", s.PrefetchHits)
	}
	c.Load(2, addrOfBlock(2))
	if got := c.Stats().PrefetchHits; got != 1 {
		t.Errorf("second demand access must not recount (got %d)", got)
	}
}

func TestPrefetchNeverEvictsLiveLines(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = BaseP()
		cfg.PrefetchIntoDead = true
		cfg.Repl.DecayWindow = 1 << 40 // nothing dies
	})
	// Fill set 2 with live primaries (blocks 2 and 10).
	c.Load(0, addrOfBlock(2))
	c.Load(1, addrOfBlock(10))
	// Miss on block 1 wants to prefetch block 2 — already present. Miss
	// on block 9 wants to prefetch block 10 — present. Miss on block 17
	// wants block 18 (set 2): both ways live, must not displace.
	c.Load(2, addrOfBlock(17))
	if c.HasPrimary(addrOfBlock(18)) {
		t.Error("prefetch must not displace live lines")
	}
	if !c.HasPrimary(addrOfBlock(2)) || !c.HasPrimary(addrOfBlock(10)) {
		t.Error("live primaries must survive prefetch pressure")
	}
}

func TestPrefetchUnusedCounted(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = BaseP()
		cfg.PrefetchIntoDead = true
	})
	c.Load(0, addrOfBlock(1)) // prefetches block 2 into set 2
	// Displace the unused prefetched line with demand fills in set 2.
	c.Load(1, addrOfBlock(10))
	c.Load(2, addrOfBlock(18))
	c.Load(3, addrOfBlock(26))
	if got := c.Stats().PrefetchUnused; got == 0 {
		t.Error("displaced unused prefetch not counted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPrefetchComposesWithReplication(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.PrefetchIntoDead = true // with ICR-P-PS(S)
	})
	for i := 0; i < 64; i++ {
		a := addrOfBlock(i % 16)
		if i%3 == 0 {
			c.Store(uint64(i*7), a)
		} else {
			c.Load(uint64(i*7), a)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	s := c.Stats()
	if s.PrefetchFills == 0 || s.ReplSuccesses == 0 {
		t.Errorf("both mechanisms should be active: %+v", s)
	}
}

func TestCorruptedLeftoverReplicaNotServed(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Repl.LeaveReplicas = true })
	a := addrOfBlock(1)
	c.Store(0, a)
	c.Load(1, addrOfBlock(9))
	c.Load(2, addrOfBlock(17)) // primary evicted, replica remains
	if c.ReplicaCount(a) != 1 {
		t.Fatal("setup: leftover replica missing")
	}
	c.CorruptReplica(a, 0, 3)
	lat := c.Load(3, a)
	if lat < 7 {
		t.Errorf("corrupted leftover must not serve the miss (lat %d)", lat)
	}
	s := c.Stats()
	if s.ReplicaServedMisses != 0 {
		t.Errorf("served %d misses from a corrupted replica", s.ReplicaServedMisses)
	}
	if s.ErrorsDetected == 0 {
		t.Error("replica corruption should have been detected")
	}
}

func TestPrefetchUnusedCountedAtReplicaSite(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.PrefetchIntoDead = true // with ICR-P-PS(S)
	})
	c.Load(0, addrOfBlock(3))  // prefetches block 4 into set 4
	c.Load(1, addrOfBlock(12)) // fills set 4's other way
	// A store to block 0 replicates at distance 4 into set 4, whose LRU
	// dead line is the never-demanded prefetch of block 4.
	c.Store(2, addrOfBlock(0))
	s := c.Stats()
	if c.HasPrimary(addrOfBlock(4)) || s.DeadEvictions != 1 {
		t.Fatalf("block 4 not evicted as a replica site (DeadEvictions %d)", s.DeadEvictions)
	}
	if s.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", s.PrefetchUnused)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
