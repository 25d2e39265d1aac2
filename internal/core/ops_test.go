package core

import (
	"testing"

	"repro/internal/cache"
)

func TestWriteThroughWithReplicationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("write-through + replication should panic")
		}
	}()
	mem := cache.NewMemory(6, 64)
	New(Config{
		Size: 1024, Assoc: 2, BlockSize: 64,
		Scheme:      ICR(ParityProt, LookupSerial, ReplStores),
		WritePolicy: cache.WriteThrough,
		Next:        mem, Mem: mem,
	})
}

func TestPrimeDistanceReplication(t *testing.T) {
	// §5.1: "experiments with Distance-7 (a prime number) ... not any
	// different from Distance-N/2." With 8 sets, distance 7 wraps to the
	// set just before the home set.
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = []int{7}
	})
	a := addrOfBlock(1) // home set 1, replica set (1+7)%8 = 0
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("replica count = %d, want 1", got)
	}
	// Verify it landed in set 0 by flushing set 0 with primaries.
	c.Load(1, addrOfBlock(0))
	c.Load(2, addrOfBlock(8))
	if got := c.ReplicaCount(a); got != 0 {
		t.Errorf("replica should have been in set 0; count = %d", got)
	}
}

func TestDistanceWrapsAroundSets(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = []int{4}
	})
	a := addrOfBlock(6) // home set 6, replica set (6+4)%8 = 2
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("replica count = %d, want 1", got)
	}
	c.Load(1, addrOfBlock(2))
	c.Load(2, addrOfBlock(10))
	if got := c.ReplicaCount(a); got != 0 {
		t.Errorf("replica should have wrapped to set 2; count = %d", got)
	}
}

func TestDecayTickBoundary(t *testing.T) {
	// Window 1000 => tick period 250; a line is dead only once 4 full
	// ticks have elapsed since its access tick.
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1000
		cfg.Repl.Victim = DeadOnly
	})
	c.Load(0, addrOfBlock(5)) // accessed at tick 0
	c.Load(1, addrOfBlock(13))
	// At cycle 999 (tick 3) the lines are still live: replication fails.
	c.Store(999, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("line declared dead before the window elapsed (count %d)", got)
	}
	// At cycle 1000 (tick 4) they are dead.
	c.Store(1000, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Errorf("line should be dead at exactly one window (count %d)", got)
	}
}

func TestTouchResetsDecay(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1000
		cfg.Repl.Victim = DeadOnly
	})
	c.Load(0, addrOfBlock(5))
	c.Load(0, addrOfBlock(13))
	c.Load(900, addrOfBlock(5)) // refresh one way of set 5
	c.Load(900, addrOfBlock(13))
	c.Store(1100, addrOfBlock(1)) // 200 cycles after refresh: both live
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("touched lines must not be dead (count %d)", got)
	}
}

func TestStoreMissAllocatesAndReplicates(t *testing.T) {
	c, _ := testCache(t, nil)
	a := addrOfBlock(3)
	if lat := c.Store(0, a); lat != 1 {
		t.Errorf("store miss latency = %d, want 1 (buffered)", lat)
	}
	if !c.HasPrimary(a) {
		t.Error("store miss should write-allocate")
	}
	if !c.PrimaryDirty(a) {
		t.Error("allocated line should be dirty")
	}
	if got := c.ReplicaCount(a); got != 1 {
		t.Errorf("store-miss fill should replicate under S trigger, count = %d", got)
	}
	s := c.Stats()
	if s.WriteMisses != 1 {
		t.Errorf("write misses = %d", s.WriteMisses)
	}
}

func TestPower2FallbackUsesLaterSites(t *testing.T) {
	// Fill the first two candidate sets with live primaries; the third
	// candidate must receive the replica.
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 << 40
		cfg.Repl.Distances = Power2Distances(8, 3) // {4, 2, 6}
	})
	for _, blk := range []int{5, 13, 3, 11} { // sets 5 and 3 live
		c.Load(0, addrOfBlock(blk))
	}
	c.Store(1, addrOfBlock(1)) // home 1; candidates 5, 3, 7
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Fatalf("third candidate should have been used; count = %d", got)
	}
	// Confirm set 7 holds it.
	c.Load(2, addrOfBlock(7))
	c.Load(3, addrOfBlock(15))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("replica expected in set 7; count = %d", got)
	}
}

func TestSilentWritebackCounted(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseP() })
	a := addrOfBlock(1)
	c.Store(0, a)              // dirty
	c.CorruptPrimary(a, 2)     // corrupt without a load noticing
	c.Load(1, addrOfBlock(9))  // fill set 1
	c.Load(2, addrOfBlock(17)) // evict the dirty corrupted line
	s := c.Stats()
	if s.Writebacks == 0 {
		t.Fatal("expected a writeback")
	}
	if s.SilentWritebacks != 1 {
		t.Errorf("silent writebacks = %d, want 1", s.SilentWritebacks)
	}
}

func TestECCSchemeLinesCarryECC(t *testing.T) {
	// In ICR-ECC schemes even replicated lines keep their SEC-DED bits
	// maintained, so losing the replica does not strand stale ECC.
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = ICR(ECCProt, LookupSerial, ReplStores)
	})
	a := addrOfBlock(1)
	c.Store(0, a) // creates replica; ECC maintained on write
	// Kill the replica by filling its set with primaries.
	c.Load(1, addrOfBlock(5))
	c.Load(2, addrOfBlock(13))
	if c.ReplicaCount(a) != 0 {
		t.Fatal("setup: replica should be gone")
	}
	// Now the line is unreplicated: a single-bit error must be corrected
	// by its (still current) ECC.
	c.CorruptPrimary(a, 4)
	c.Load(3, a)
	s := c.Stats()
	if s.RecoveredByECC != 1 || s.UnrecoverableLoads != 0 {
		t.Errorf("stats = %+v: stale ECC after replica eviction?", s)
	}
}

// TestReplicaServedMissClearsReusedWay: the §5.6 replica-served miss
// installs a fresh primary in its home set's LRU way. A guest line there
// must not leave its guest bit on the new primary (the far tier's
// DropReplica would then invalidate it, dirty data and all), and a
// never-demanded prefetched line must not leave a prefetch hit behind.
func TestReplicaServedMissClearsReusedWay(t *testing.T) {
	// 8 sets, 2 ways, decay window 0 (every line is dead at once): block 0
	// lives in set 0 and replicates to set 4.
	t.Run("guest", func(t *testing.T) {
		c, _ := testCache(t, func(cfg *Config) {
			cfg.Repl.LeaveReplicas = true
			cfg.CrossTier = &fakeSink{}
		})
		c.Load(0, addrOfBlock(0))
		c.Store(1, addrOfBlock(0)) // replica in set 4
		c.Load(2, addrOfBlock(8))
		c.Load(3, addrOfBlock(16)) // evicts primary 0; its replica stays
		if !c.OfferReplica(4, 24, make([]byte, 64)) {
			t.Fatal("guest offer for block 24 refused")
		}
		c.Load(5, addrOfBlock(16)) // the guest is now set 0's LRU way
		c.Load(6, addrOfBlock(0))  // served by the replica, into the guest's way
		c.Store(7, addrOfBlock(0))
		c.DropReplica(0) // the far tier rewrote block 0: only guests drop
		if st := c.Stats(); st.ReplicaServedMisses != 1 {
			t.Fatalf("replica-served misses = %d, want 1", st.ReplicaServedMisses)
		}
		if !c.PrimaryDirty(addrOfBlock(0)) {
			t.Error("DropReplica invalidated the dirty primary installed over a guest way")
		}
		if hd := c.CrossTierStats().HostDrops; hd != 0 {
			t.Errorf("host drops = %d, want 0 (no guest of block 0 exists)", hd)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
	t.Run("prefetched", func(t *testing.T) {
		c, _ := testCache(t, func(cfg *Config) {
			cfg.Repl.LeaveReplicas = true
			cfg.PrefetchIntoDead = true
		})
		c.Load(0, addrOfBlock(0))
		c.Store(1, addrOfBlock(0)) // replica in set 4
		c.Load(2, addrOfBlock(16))
		c.Load(3, addrOfBlock(24)) // evicts primary 0; its replica stays
		c.Load(4, addrOfBlock(7))  // prefetches block 8 into set 0
		c.Load(5, addrOfBlock(24)) // the prefetched line is set 0's LRU way
		c.Load(6, addrOfBlock(0))  // served by the replica, into that way
		c.Load(7, addrOfBlock(0))
		st := c.Stats()
		if st.ReplicaServedMisses != 1 || st.PrefetchFills == 0 {
			t.Fatalf("setup missed the path: %+v", st)
		}
		if st.PrefetchHits != 0 {
			t.Errorf("prefetch hits = %d, want 0: block 0 was never prefetched", st.PrefetchHits)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}
