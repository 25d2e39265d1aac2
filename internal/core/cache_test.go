package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/fault"
)

// testCache builds a small ICR cache over a shared Memory: 8 sets, 2-way,
// 64-byte blocks (vertical distance N/2 = 4).
func testCache(t *testing.T, mutate func(*Config)) (*Cache, *cache.Memory) {
	t.Helper()
	mem := cache.NewMemory(6, 64) // next-level latency 6, like the paper's L2
	cfg := Config{
		Size: 1024, Assoc: 2, BlockSize: 64,
		Scheme: ICR(ParityProt, LookupSerial, ReplStores),
		Next:   mem, Mem: mem,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), mem
}

// addrOfBlock returns the base address of block index k.
func addrOfBlock(k int) uint64 { return uint64(k) * 64 }

func TestLoadMissThenHit(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseP() })
	if lat := c.Load(0, addrOfBlock(1)); lat != 7 {
		t.Errorf("cold load latency = %d, want 7 (1 + 6)", lat)
	}
	if lat := c.Load(1, addrOfBlock(1)); lat != 1 {
		t.Errorf("hit load latency = %d, want 1", lat)
	}
	s := c.Stats()
	if s.Reads != 2 || s.ReadHits != 1 || s.ReadMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLoadHitLatencyPerScheme(t *testing.T) {
	// Latency of a load hit to a *replicated* and an *unreplicated* block
	// under every scheme (§3.2).
	cases := []struct {
		scheme         Scheme
		wantUnrepl     uint64
		wantReplicated uint64
	}{
		{BaseP(), 1, 1},
		{BaseECC(false), 2, 2},
		{BaseECC(true), 1, 1},
		{ICR(ParityProt, LookupSerial, ReplStores), 1, 1},
		{ICR(ParityProt, LookupParallel, ReplStores), 1, 2},
		{ICR(ECCProt, LookupSerial, ReplStores), 2, 1},
		{ICR(ECCProt, LookupParallel, ReplStores), 2, 2},
	}
	for _, tc := range cases {
		c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = tc.scheme })
		// Unreplicated: load-miss fill then a load hit. (Trigger S never
		// replicates on loads.)
		a := addrOfBlock(1)
		c.Load(0, a)
		if lat := c.Load(1, a); lat != tc.wantUnrepl {
			t.Errorf("%s: unreplicated hit latency = %d, want %d", tc.scheme, lat, tc.wantUnrepl)
		}
		if !tc.scheme.HasReplication() {
			if lat := c.Load(2, a); lat != tc.wantReplicated {
				t.Errorf("%s: hit latency = %d, want %d", tc.scheme, lat, tc.wantReplicated)
			}
			continue
		}
		// Store creates a replica (decay window 0: everything dead, so a
		// site is always available); then measure a load hit.
		b := addrOfBlock(2)
		c.Store(3, b)
		if got := c.ReplicaCount(b); got != 1 {
			t.Fatalf("%s: replica count = %d, want 1", tc.scheme, got)
		}
		if lat := c.Load(4, b); lat != tc.wantReplicated {
			t.Errorf("%s: replicated hit latency = %d, want %d", tc.scheme, lat, tc.wantReplicated)
		}
	}
}

func TestStoreAlwaysOneCycle(t *testing.T) {
	for _, s := range AllSchemes() {
		c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = s })
		if lat := c.Store(0, addrOfBlock(3)); lat != 1 {
			t.Errorf("%s: store miss latency = %d, want 1 (buffered)", s, lat)
		}
		if lat := c.Store(1, addrOfBlock(3)); lat != 1 {
			t.Errorf("%s: store hit latency = %d, want 1", s, lat)
		}
	}
}

func TestVerticalReplicaPlacement(t *testing.T) {
	c, _ := testCache(t, nil) // ICR-P-PS(S), distance N/2 = 4, window 0
	a := addrOfBlock(1)       // home set 1
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("replica count = %d, want 1", got)
	}
	// The replica must live in set (1+4)%8 = 5: filling set 5 with
	// primaries must evict it, while filling other sets must not.
	s := c.Stats()
	if s.ReplAttempts != 1 || s.ReplSuccesses != 1 {
		t.Errorf("repl stats = %+v", s)
	}
	// Two primaries landing in set 5 (2-way) displace everything there.
	c.Load(1, addrOfBlock(5))
	c.Load(2, addrOfBlock(13))
	if got := c.ReplicaCount(a); got != 0 {
		t.Errorf("replica should have been evicted from set 5, count = %d", got)
	}
}

func TestHorizontalReplicaPlacement(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = HorizontalDistances()
	})
	a := addrOfBlock(1)
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("replica count = %d, want 1", got)
	}
	// Horizontal: primary and replica share set 1 (2 ways full). A load
	// of another block mapping to set 1 must still find its own data and
	// not confuse the replica for a primary of a different block.
	b := addrOfBlock(9) // also set 1
	c.Load(1, b)
	if !c.HasPrimary(b) {
		t.Error("new primary should be resident")
	}
	if !c.HasPrimary(a) {
		// LRU in set 1 was either the replica or the primary of a; with
		// window 0 the replica or primary could be the victim. The key
		// invariant: a's primary and replica cannot both survive.
		if c.ReplicaCount(a) > 0 {
			t.Error("replica without primary after LRU eviction in default mode")
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestMultiAttemptFallback(t *testing.T) {
	// Make the single-attempt site unavailable by filling set 5 with live
	// primaries (decay window large so they are not dead).
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 << 40
		cfg.Repl.Distances = []int{4, 2} // N/2 then N/4
	})
	now := uint64(0)
	// Live primaries in set 5 (blocks 5, 13) and set 3 left free.
	c.Load(now, addrOfBlock(5))
	c.Load(now+1, addrOfBlock(13))
	a := addrOfBlock(1) // home set 1; tries set 5 (full of live primaries), then set 3
	c.Store(now+2, a)
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("multi-attempt should have placed a replica, count = %d", got)
	}
	// Single-attempt config must fail in the same situation.
	c2, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 << 40
		cfg.Repl.Distances = []int{4}
	})
	c2.Load(now, addrOfBlock(5))
	c2.Load(now+1, addrOfBlock(13))
	c2.Store(now+2, a)
	if got := c2.ReplicaCount(a); got != 0 {
		t.Errorf("single attempt into a full live set should fail, count = %d", got)
	}
	st := c2.Stats()
	if st.ReplAttempts != 1 || st.ReplSuccesses != 0 {
		t.Errorf("repl stats = %+v, want attempt without success", st)
	}
}

func TestTwoReplicas(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.Distances = []int{4, 2}
		cfg.Repl.Replicas = 2
	})
	a := addrOfBlock(1)
	c.Store(0, a)
	if got := c.ReplicaCount(a); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	s := c.Stats()
	if s.ReplDoubles != 1 {
		t.Errorf("ReplDoubles = %d, want 1", s.ReplDoubles)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestLSReplicatesOnLoadMiss(t *testing.T) {
	cLS, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = ICR(ParityProt, LookupSerial, ReplLoadsStores)
	})
	a := addrOfBlock(1)
	cLS.Load(0, a) // miss fill: LS replicates
	if got := cLS.ReplicaCount(a); got != 1 {
		t.Errorf("LS: replica count after load fill = %d, want 1", got)
	}
	cS, _ := testCache(t, nil) // trigger S
	cS.Load(0, a)
	if got := cS.ReplicaCount(a); got != 0 {
		t.Errorf("S: replica count after load fill = %d, want 0", got)
	}
}

func TestStoreUpdatesReplica(t *testing.T) {
	c, _ := testCache(t, nil)
	a := addrOfBlock(1)
	c.Store(0, a) // creates replica
	c.Store(1, a) // updates primary and replica
	w1, ok1 := c.ReadWord(a)
	if !ok1 {
		t.Fatal("primary missing")
	}
	// Corrupt the primary; the replica must still hold the stored value,
	// proving it was updated at the second store.
	c.CorruptPrimary(a, 0)
	lat := c.Load(2, a)
	if lat != 2 {
		t.Errorf("recovery load latency = %d, want 2 (1 + 1 replica cycle)", lat)
	}
	w2, _ := c.ReadWord(a)
	if w2 != w1 {
		t.Errorf("replica repair restored %#x, want %#x", w2, w1)
	}
	s := c.Stats()
	if s.RecoveredByReplica != 1 || s.ErrorsDetected != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDeadOnlyRefusesLivePrimaries(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 << 40 // nothing ever dies
		cfg.Repl.Victim = DeadOnly
	})
	// Fill the replication site (set 5) with live primaries.
	c.Load(0, addrOfBlock(5))
	c.Load(1, addrOfBlock(13))
	c.Store(2, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("dead-only must not evict live primaries, replica count = %d", got)
	}
}

func TestDeadFirstFallsBackToReplicas(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 << 40
		cfg.Repl.Victim = DeadFirst
	})
	// Set 5 holds one live primary and one replica (of block 9, home set
	// 1, replicated into set 5).
	c.Load(0, addrOfBlock(5))  // live primary in set 5
	c.Store(1, addrOfBlock(9)) // primary in set 1, replica into set 5
	if c.ReplicaCount(addrOfBlock(9)) != 1 {
		t.Fatal("setup: block 9 replica missing")
	}
	// Now block 1 (also home set 1) wants a replica in set 5: no dead
	// lines, so dead-first must displace block 9's replica.
	c.Store(2, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Errorf("dead-first should have used the replica slot, count = %d", got)
	}
	if got := c.ReplicaCount(addrOfBlock(9)); got != 0 {
		t.Errorf("block 9 replica should have been displaced, count = %d", got)
	}
	if c.Stats().ReplicaEvictions == 0 {
		t.Error("replica eviction not counted")
	}
}

func TestReplicaOnlyNeverTouchesDead(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1 // everything dies almost immediately
		cfg.Repl.Victim = ReplicaOnly
	})
	// Dead primaries in set 5, but no replicas: replica-only cannot place.
	c.Load(0, addrOfBlock(5))
	c.Load(1, addrOfBlock(13))
	c.Store(1000, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("replica-only with no replicas resident should fail, count = %d", got)
	}
}

func TestDecayWindowKeepsRecentBlocksAlive(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl.DecayWindow = 1000
		cfg.Repl.Victim = DeadOnly
	})
	// Recently touched primaries in set 5: not dead at cycle 500.
	c.Load(400, addrOfBlock(5))
	c.Load(450, addrOfBlock(13))
	c.Store(500, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 0 {
		t.Errorf("blocks touched 100 cycles ago must be alive, replica count = %d", got)
	}
	// After 2000+ cycles they are dead (window 1000 = 4 ticks of 250).
	c.Store(3000, addrOfBlock(1))
	if got := c.ReplicaCount(addrOfBlock(1)); got != 1 {
		t.Errorf("blocks idle past the window must be dead, replica count = %d", got)
	}
}

func TestPrimaryEvictionDropsReplicas(t *testing.T) {
	c, _ := testCache(t, nil)
	a := addrOfBlock(1)
	c.Store(0, a) // primary set 1, replica set 5
	// Evict the primary by filling set 1 with two other blocks.
	c.Load(1, addrOfBlock(9))
	c.Load(2, addrOfBlock(17))
	if c.HasPrimary(a) {
		t.Fatal("primary should have been evicted")
	}
	if got := c.ReplicaCount(a); got != 0 {
		t.Errorf("replicas must die with their primary (default mode), count = %d", got)
	}
}

func TestLeaveReplicasServesMiss(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Repl.LeaveReplicas = true })
	a := addrOfBlock(1)
	c.Store(0, a)
	c.Load(1, addrOfBlock(9))
	c.Load(2, addrOfBlock(17)) // primary of a evicted, replica stays
	if got := c.ReplicaCount(a); got != 1 {
		t.Fatalf("replica should survive primary eviction, count = %d", got)
	}
	lat := c.Load(3, a) // primary miss served by replica
	if lat != 2 {
		t.Errorf("replica-served miss latency = %d, want 2 (1 + 1)", lat)
	}
	if got := c.Stats().ReplicaServedMisses; got != 1 {
		t.Errorf("ReplicaServedMisses = %d, want 1", got)
	}
	if !c.HasPrimary(a) {
		t.Error("replica-served miss should reinstall a primary")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestBasePCleanErrorRecoversFromL2(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseP() })
	a := addrOfBlock(1)
	c.Load(0, a) // clean fill
	c.CorruptPrimary(a, 3)
	lat := c.Load(1, a)
	if lat < 7 {
		t.Errorf("clean recovery should pay the L2 trip, latency = %d", lat)
	}
	s := c.Stats()
	if s.RecoveredByL2 != 1 || s.UnrecoverableLoads != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBasePDirtyErrorUnrecoverable(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseP() })
	a := addrOfBlock(1)
	c.Store(0, a) // dirty line
	c.CorruptPrimary(a, 3)
	c.Load(1, a)
	s := c.Stats()
	if s.UnrecoverableLoads != 1 {
		t.Errorf("UnrecoverableLoads = %d, want 1", s.UnrecoverableLoads)
	}
	if s.RecoveredByL2 != 0 {
		t.Errorf("dirty loss must not count as recovery: %+v", s)
	}
}

func TestBaseECCCorrectsSingleBit(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseECC(false) })
	a := addrOfBlock(1)
	c.Store(0, a)
	want, _ := c.ReadWord(a)
	c.CorruptPrimary(a, 5)
	c.Load(1, a)
	got, _ := c.ReadWord(a)
	if got != want {
		t.Errorf("ECC correction failed: %#x, want %#x", got, want)
	}
	s := c.Stats()
	if s.RecoveredByECC != 1 || s.UnrecoverableLoads != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBaseECCDoubleBitDirtyUnrecoverable(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseECC(false) })
	a := addrOfBlock(1)
	c.Store(0, a)
	// Two flips in the same 64-bit word: SEC-DED detects but cannot fix.
	c.CorruptPrimary(a, 0)
	c.CorruptPrimary(a+1, 1)
	c.Load(1, a)
	s := c.Stats()
	if s.UnrecoverableLoads != 1 {
		t.Errorf("double-bit dirty should be unrecoverable: %+v", s)
	}
}

func TestICRECCUnreplicatedStillCorrects(t *testing.T) {
	// ICR-ECC: an unreplicated line keeps full SEC-DED protection.
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = ICR(ECCProt, LookupSerial, ReplStores)
		cfg.Repl.DecayWindow = 1 << 40 // replica creation will fail
	})
	c.Load(0, addrOfBlock(5)) // live primaries occupy the site
	c.Load(1, addrOfBlock(13))
	a := addrOfBlock(1)
	c.Store(2, a) // dirty, unreplicated
	if c.ReplicaCount(a) != 0 {
		t.Fatal("setup: expected no replica")
	}
	c.CorruptPrimary(a, 2)
	c.Load(3, a)
	s := c.Stats()
	if s.RecoveredByECC != 1 || s.UnrecoverableLoads != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReplicaAlsoCorruptedFallsBack(t *testing.T) {
	c, _ := testCache(t, nil) // ICR-P-PS(S)
	a := addrOfBlock(1)
	c.Store(0, a) // dirty primary + replica
	c.CorruptPrimary(a, 3)
	c.CorruptReplica(a, 0, 4)
	c.Load(1, a)
	s := c.Stats()
	if s.UnrecoverableLoads != 1 {
		t.Errorf("both copies corrupted on dirty parity line: %+v", s)
	}
}

func TestParallelLookupScrubsCorruptReplica(t *testing.T) {
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = ICR(ParityProt, LookupParallel, ReplStores)
	})
	a := addrOfBlock(1)
	c.Store(0, a)
	c.CorruptReplica(a, 0, 6)
	c.Load(1, a) // parallel compare catches the replica error
	s := c.Stats()
	if s.ErrorsDetected != 1 || s.RecoveredByReplica != 1 {
		t.Errorf("parallel scrub stats = %+v", s)
	}
	// The replica must now be intact: corrupt the primary and recover.
	c.CorruptPrimary(a, 6)
	c.Load(2, a)
	if got := c.Stats().UnrecoverableLoads; got != 0 {
		t.Errorf("scrubbed replica should enable recovery, unrecoverable = %d", got)
	}
}

func TestWriteThroughKeepsLinesClean(t *testing.T) {
	var mem *cache.Memory
	c, m := testCache(t, func(cfg *Config) {
		cfg.Scheme = BaseP()
		cfg.WritePolicy = cache.WriteThrough
	})
	mem = m
	a := addrOfBlock(1)
	c.Load(0, a)
	c.Store(1, a)
	if c.PrimaryDirty(a) {
		t.Error("write-through lines must stay clean")
	}
	// Clean line + parity error is always recoverable: the §5.8 argument.
	c.CorruptPrimary(a, 1)
	c.Load(2, a)
	s := c.Stats()
	if s.UnrecoverableLoads != 0 || s.RecoveredByL2 != 1 {
		t.Errorf("write-through recovery stats = %+v", s)
	}
	// And memory saw the stored value.
	blk := mem.FetchBlock(c.arr.BlockAddr(a))
	allZero := true
	for _, b := range blk {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Error("write-through should have updated memory content")
	}
}

func TestWriteThroughBufferStall(t *testing.T) {
	mem := cache.NewMemory(6, 64)
	wb := cache.NewWriteBuffer(2, 6, mem)
	cfg := Config{
		Size: 1024, Assoc: 2, BlockSize: 64,
		Scheme:      BaseP(),
		WritePolicy: cache.WriteThrough,
		WriteBuf:    wb,
		Next:        mem, Mem: mem,
	}
	c := New(cfg)
	// Three stores to distinct blocks at the same cycle: third must stall.
	if lat := c.Store(0, addrOfBlock(1)); lat != 1 {
		t.Errorf("store 1 latency = %d, want 1", lat)
	}
	if lat := c.Store(0, addrOfBlock(2)); lat != 1 {
		t.Errorf("store 2 latency = %d, want 1", lat)
	}
	if lat := c.Store(0, addrOfBlock(3)); lat <= 1 {
		t.Errorf("store 3 should stall on a full buffer, latency = %d", lat)
	}
}

func TestFaultInjectionEndToEnd(t *testing.T) {
	c, _ := testCache(t, nil)
	// Warm the cache.
	for i := 0; i < 16; i++ {
		c.Store(uint64(i), addrOfBlock(i))
	}
	in := fault.NewInjector(fault.Random, 1, c.arr.wordsPerLine*c.cfg.Assoc, 1)
	for i := 0; i < 50; i++ {
		c.Inject(in)
	}
	s := c.Stats()
	if s.InjectedFlips+s.InjectedIntoInvalid != 50 {
		t.Errorf("injections unaccounted: %+v", s)
	}
	if s.InjectedFlips == 0 {
		t.Error("expected some flips to land in valid lines")
	}
	// Loads must never crash and stats must stay consistent.
	for i := 0; i < 16; i++ {
		c.Load(uint64(100+i), addrOfBlock(i))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants after injection: %v", err)
	}
}

func TestEnergyAccountingDiffersByScheme(t *testing.T) {
	run := func(s Scheme) energy.Counts {
		c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = s })
		for i := 0; i < 32; i++ {
			c.Store(uint64(2*i), addrOfBlock(i%8))
			c.Load(uint64(2*i+1), addrOfBlock(i%8))
		}
		return c.EnergyCounts()
	}
	p := energy.DefaultParams()
	mp := run(BaseP())
	me := run(BaseECC(false))
	if p.CheckEnergy(mp) >= p.CheckEnergy(me) {
		t.Errorf("BaseP check energy %.2f should be below BaseECC %.2f",
			p.CheckEnergy(mp), p.CheckEnergy(me))
	}
	micr := run(ICR(ParityProt, LookupSerial, ReplStores))
	if micr.L1Writes <= mp.L1Writes {
		t.Errorf("ICR must pay duplicate writes: %d vs %d", micr.L1Writes, mp.L1Writes)
	}
}

// TestRandomOperationInvariants drives random operations through random
// scheme configurations and checks the invariants — tag words and replica
// links included — after every operation, and the counter identities after
// each run. Placements cover vertical, multi-attempt and horizontal
// (distance-0) replication, the last putting guests in a candidate set.
// Runs retune, evict single lines and reset mid-way. The stressed variant turns on every
// option that reuses a way with state left in it — leftover replicas
// serving misses (§5.6), prefetching into dead lines, guest lines hosted
// for a far tier — and adds the far tier's repairs and drops, bit flips
// and scrubbing.
func TestRandomOperationInvariants(t *testing.T) {
	for _, stressed := range []bool{false, true} {
		f := func(seed int64) bool {
			return randomOperationsHold(t, seed, stressed)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("stressed=%v: %v", stressed, err)
		}
	}
}

func randomOperationsHold(t *testing.T, seed int64, stressed bool) bool {
	rng := rand.New(rand.NewSource(seed))
	schemes := AllSchemes()
	s := schemes[rng.Intn(len(schemes))]
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Scheme = s
		cfg.Repl.DecayWindow = uint64(rng.Intn(3)) * 500
		cfg.Repl.Victim = VictimPolicy(1 + rng.Intn(4))
		cfg.Repl.LeaveReplicas = rng.Intn(2) == 0
		switch rng.Intn(3) {
		case 0:
			cfg.Repl.Distances = []int{4, 2}
			cfg.Repl.Replicas = 1 + rng.Intn(2)
		case 1:
			cfg.Repl.Distances = []int{0, 4}
			cfg.Repl.Replicas = 1 + rng.Intn(2)
		}
		if stressed {
			cfg.Repl.LeaveReplicas = true
			cfg.PrefetchIntoDead = true
			cfg.CrossTier = &fakeSink{acceptOffers: true}
		}
	})
	guest := make([]byte, 64)
	var word [8]byte
	for i := 0; i < 400; i++ {
		now := uint64(i * 3)
		a := addrOfBlock(rng.Intn(32)) + uint64(rng.Intn(8)*8)
		ba := uint64(rng.Intn(32))
		var op string
		switch r := rng.Intn(40); {
		case r == 0:
			op = "retune"
			c.Retune(TuneState{
				Replicas:    rng.Intn(3),
				Victim:      VictimPolicy(rng.Intn(5)),
				Lookup:      LookupMode(rng.Intn(3)),
				DecayWindow: uint64(rng.Intn(3)) * 500,
			})
		case r == 1 && rng.Intn(4) == 0:
			op = "reset"
			c.Reset()
		case stressed && r < 8:
			op = "offer"
			c.OfferReplica(now, ba, guest)
		case stressed && r < 10:
			op = "repair"
			c.RepairWord(now, ba, rng.Intn(8)*8, word[:])
		case stressed && r < 12:
			op = "drop"
			c.DropReplica(ba)
		case stressed && r < 14:
			op = "flip"
			ln := &c.arr.Lines[rng.Intn(len(c.arr.Lines))]
			ln.Data[rng.Intn(len(ln.Data))] ^= 1 << uint(rng.Intn(8))
		case stressed && r < 15:
			op = "scrub"
			c.Scrub(now, 4)
		case r == 15:
			// Evictions are otherwise always followed by a reinstall of
			// the way; this one leaves the line invalid.
			op = "evict"
			c.evict(&c.arr.Lines[rng.Intn(len(c.arr.Lines))], now)
		case r < 25:
			op = "store"
			c.Store(now, a)
		default:
			op = "load"
			c.Load(now, a)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Logf("seed %d scheme %s: after op %d (%s): %v", seed, s, i, op, err)
			return false
		}
	}
	st := c.Stats()
	if st.ReadHits+st.ReadMisses != st.Reads || st.WriteHits+st.WriteMisses != st.Writes {
		t.Logf("seed %d: hit/miss accounting broken: %+v", seed, st)
		return false
	}
	if st.ReplSuccesses > st.ReplAttempts || st.ReplDoubles > st.ReplAttempts {
		t.Logf("seed %d: replication accounting broken: %+v", seed, st)
		return false
	}
	if st.ReadHitsWithReplica > st.ReadHits {
		t.Logf("seed %d: loads-with-replica exceeds read hits", seed)
		return false
	}
	return true
}

func TestStatsRatios(t *testing.T) {
	s := Stats{
		Reads: 80, ReadHits: 60, ReadMisses: 20,
		Writes: 20, WriteMisses: 5,
		ReplAttempts: 10, ReplSuccesses: 6,
		ReadHitsWithReplica: 30,
	}
	if got := s.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %g, want 0.25", got)
	}
	if got := s.ReplAbility(); got != 0.6 {
		t.Errorf("ReplAbility = %g, want 0.6", got)
	}
	if got := s.LoadsWithReplica(); got != 0.5 {
		t.Errorf("LoadsWithReplica = %g, want 0.5", got)
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.ReplAbility() != 0 || zero.LoadsWithReplica() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}
