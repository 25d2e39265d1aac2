package tier

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fault"
)

// testTier builds a small protected tier over a shared Memory: 8 sets,
// 2-way, 64-byte blocks (replica distance sets/2 = 4), memory 100 cycles.
func testTier(t *testing.T, mutate func(*Config)) (*Protected, *cache.Memory) {
	t.Helper()
	mem := cache.NewMemory(100, 64)
	cfg := Config{
		Size: 1024, Assoc: 2, BlockSize: 64,
		HitLatency: 6,
		Protect:    core.ParityProt,
		Next:       mem, Mem: mem,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg), mem
}

func addrOfBlock(k int) uint64 { return uint64(k) * 64 }

// sinkStub is a far tier (the L1) for the tier's client side.
type sinkStub struct {
	acceptOffers bool
	repairData   []byte
	repairLat    uint64
	offers       []uint64
	drops        []uint64
}

func (f *sinkStub) OfferReplica(_ uint64, blockAddr uint64, _ []byte) bool {
	f.offers = append(f.offers, blockAddr)
	return f.acceptOffers
}

func (f *sinkStub) RepairWord(_ uint64, _ uint64, off int, dst []byte) (uint64, bool) {
	if f.repairData == nil {
		return 0, false
	}
	copy(dst[:8], f.repairData[off:off+8])
	return f.repairLat, true
}

func (f *sinkStub) DropReplica(blockAddr uint64) { f.drops = append(f.drops, blockAddr) }

func TestTierHitMissLatencyAndKinds(t *testing.T) {
	tr, _ := testTier(t, func(cfg *Config) { cfg.ExtraLatency = 50 })
	if lat := tr.Access(0, addrOfBlock(1), cache.Read); lat != 156 {
		t.Errorf("cold miss latency = %d, want 156 (6 hit + 50 extra + 100 mem)", lat)
	}
	if lat := tr.Access(200, addrOfBlock(1), cache.Read); lat != 56 {
		t.Errorf("hit latency = %d, want 56 (6 hit + 50 extra)", lat)
	}
	tr.Access(300, addrOfBlock(1), cache.Write)
	tr.Access(400, addrOfBlock(2), cache.Fetch)
	s := tr.CacheStats()
	if s.Reads != 2 || s.ReadMisses != 1 || s.Writes != 1 || s.WriteMisses != 0 ||
		s.Fetches != 1 || s.FetchMisses != 1 {
		t.Errorf("demand stats = %+v", s)
	}
}

func TestTierContentMirrorsMemory(t *testing.T) {
	tr, mem := testTier(t, nil)
	tr.Access(0, addrOfBlock(3), cache.Read)
	ln := tr.lines.Primary(3)
	if ln == nil {
		t.Fatal("block 3 not resident after fill")
	}
	if !bytes.Equal(ln.Data, mem.PeekBlock(3)) {
		t.Error("fill did not mirror architectural content")
	}
	// A write that reaches the tier happens after Memory was updated; the
	// write hit must re-mirror the new content.
	mem.WriteWord(3, 8, 0xdeadbeefcafef00d)
	tr.Access(10, addrOfBlock(3)+8, cache.Write)
	if !bytes.Equal(ln.Data, mem.PeekBlock(3)) {
		t.Error("write hit did not refresh content from Memory")
	}
	if !ln.Dirty {
		t.Error("write hit left the line clean")
	}
}

func TestTierReplicaRecovery(t *testing.T) {
	tr, _ := testTier(t, func(cfg *Config) { cfg.Replicate = true })
	tr.Access(0, addrOfBlock(0), cache.Read) // fill + replicate (window 0: all dead)
	ts := tr.TierStats()
	if ts.ReplAttempts != 1 || ts.ReplSuccesses != 1 {
		t.Fatalf("replication stats = %+v, want 1/1", ts)
	}
	ln := tr.lines.Primary(0)
	ln.Data[9] ^= 0x04
	if lat := tr.Access(100, addrOfBlock(0)+8, cache.Read); lat != 7 {
		t.Errorf("repaired hit latency = %d, want 7 (6 hit + 1 replica read)", lat)
	}
	ts = tr.TierStats()
	if ts.ErrorsDetected != 1 || ts.RecoveredByReplica != 1 {
		t.Errorf("recovery stats = %+v, want detected/replica 1/1", ts)
	}
	// Healed: the next read of the same word is clean.
	tr.Access(200, addrOfBlock(0)+8, cache.Read)
	if tr.TierStats().ErrorsDetected != 1 {
		t.Error("line still corrupt after replica repair")
	}
}

func TestTierECCCorrectsSingle(t *testing.T) {
	tr, _ := testTier(t, func(cfg *Config) { cfg.Protect = core.ECCProt })
	tr.Access(0, addrOfBlock(0), cache.Read)
	if lat := tr.Access(100, addrOfBlock(0), cache.Read); lat != 7 {
		t.Errorf("ECC hit latency = %d, want 7 (6 hit + 1 check)", lat)
	}
	ln := tr.lines.Primary(0)
	ln.Data[3] ^= 0x20
	tr.Access(200, addrOfBlock(0), cache.Read)
	ts := tr.TierStats()
	if ts.ErrorsDetected != 1 || ts.RecoveredByECC != 1 {
		t.Errorf("ECC stats = %+v, want detected/corrected 1/1", ts)
	}
}

func TestTierCleanRefetchDirtyLoss(t *testing.T) {
	tr, _ := testTier(t, nil) // parity only, no replicas
	// Clean line: detected error refetches from memory.
	tr.Access(0, addrOfBlock(0), cache.Read)
	tr.lines.Primary(0).Data[1] ^= 0x01
	lat := tr.Access(100, addrOfBlock(0), cache.Read)
	if lat != 6+1+100 {
		t.Errorf("refetch hit latency = %d, want 107 (6 hit + 1 + 100 mem)", lat)
	}
	ts := tr.TierStats()
	if ts.ErrorsDetected != 1 || ts.RecoveredByMem != 1 || ts.UnrecoverableDirty != 0 {
		t.Errorf("clean-line stats = %+v", ts)
	}
	// Dirty line: the same error is lost data.
	tr.Access(200, addrOfBlock(1), cache.Write) // miss + write-allocate: dirty
	tr.lines.Primary(1).Data[1] ^= 0x01
	tr.Access(300, addrOfBlock(1), cache.Read)
	ts = tr.TierStats()
	if ts.UnrecoverableDirty != 1 {
		t.Errorf("dirty-line stats = %+v, want 1 unrecoverable", ts)
	}
}

func TestTierSilentWriteback(t *testing.T) {
	tr, mem := testTier(t, nil)
	tr.Access(0, addrOfBlock(0), cache.Write) // set 0, dirty
	tr.lines.Primary(0).Data[5] ^= 0x80       // corrupt, never read again
	archBefore := append([]byte(nil), mem.PeekBlock(0)...)
	// Two more blocks in set 0 (8 and 16 mod 8 = 0) evict the victim.
	tr.Access(10, addrOfBlock(8), cache.Read)
	tr.Access(20, addrOfBlock(16), cache.Read)
	ts := tr.TierStats()
	if ts.SilentWritebacks != 1 {
		t.Errorf("SilentWritebacks = %d, want 1", ts.SilentWritebacks)
	}
	// The corruption is counted, never propagated: Memory still holds the
	// architectural bytes.
	if !bytes.Equal(mem.PeekBlock(0), archBefore) {
		t.Error("corrupt write-back reached the architectural store")
	}
}

func TestTierCrossSpillAndDrop(t *testing.T) {
	sink := &sinkStub{acceptOffers: true}
	tr, mem := testTier(t, func(cfg *Config) {
		cfg.Replicate = true
		cfg.Victim = core.DeadOnly
		cfg.DecayWindow = 1 << 20 // nothing is dead: every in-tier attempt fails
	})
	tr.SetCross(sink)
	// Keep the replica set (4) fully live.
	tr.Access(0, addrOfBlock(4), cache.Read)
	tr.Access(1, addrOfBlock(12), cache.Read)
	tr.Access(10, addrOfBlock(0), cache.Read) // shortfall: spilled to the L1
	if len(sink.offers) != 1 || sink.offers[0] != 0 {
		t.Fatalf("L1 saw offers %v, want [0]", sink.offers)
	}
	ts := tr.TierStats()
	if ts.Cross.Offers != 1 || ts.Cross.Accepted != 1 {
		t.Fatalf("cross stats = %+v, want 1 offer / 1 accepted", ts.Cross)
	}
	if !tr.lines.Primary(0).Spilled {
		t.Fatal("primary not marked spilled")
	}
	// A write to the spilled block must drop the now-stale L1 copy.
	mem.WriteWord(0, 0, 42)
	tr.Access(20, addrOfBlock(0), cache.Write)
	if len(sink.drops) != 1 || sink.drops[0] != 0 {
		t.Errorf("L1 saw drops %v, want [0]", sink.drops)
	}
	if tr.TierStats().Cross.Drops != 1 {
		t.Errorf("Cross.Drops = %d, want 1", tr.TierStats().Cross.Drops)
	}
	if tr.lines.Primary(0).Spilled {
		t.Error("spilled flag survived the write")
	}
}

func TestTierCrossRepairRung(t *testing.T) {
	sink := &sinkStub{repairLat: 2}
	tr, mem := testTier(t, func(cfg *Config) {
		cfg.Replicate = true
		cfg.Victim = core.DeadOnly
		cfg.DecayWindow = 1 << 20
	})
	tr.SetCross(sink)
	tr.Access(0, addrOfBlock(4), cache.Read)
	tr.Access(1, addrOfBlock(12), cache.Read)
	tr.Access(10, addrOfBlock(0), cache.Read) // no in-tier replica possible
	sink.repairData = append([]byte(nil), mem.PeekBlock(0)...)

	tr.lines.Primary(0).Data[2] ^= 0x40
	if lat := tr.Access(20, addrOfBlock(0), cache.Read); lat != 6+2 {
		t.Errorf("cross-repaired hit latency = %d, want 8 (6 hit + 2 L1 probe)", lat)
	}
	ts := tr.TierStats()
	if ts.RecoveredByCross != 1 || ts.Cross.Repairs != 1 || ts.Cross.Repaired != 1 {
		t.Errorf("cross repair stats = %+v", ts)
	}
}

func TestTierHostsGuests(t *testing.T) {
	tr, mem := testTier(t, func(cfg *Config) {
		cfg.Replicate = true
		cfg.ExtraLatency = 50
	})
	blk := mem.PeekBlock(5)
	if !tr.OfferReplica(0, 5, blk) {
		t.Fatal("offer refused")
	}
	var buf [8]byte
	lat, ok := tr.RepairWord(1, 5, 24, buf[:])
	if !ok {
		t.Fatal("RepairWord missed the guest")
	}
	if lat != 6+50+1 {
		t.Errorf("remote repair latency = %d, want 57 (hit + extra + transfer)", lat)
	}
	if !bytes.Equal(buf[:], blk[24:32]) {
		t.Error("repair word mismatch")
	}
	tr.DropReplica(5)
	if _, ok := tr.RepairWord(2, 5, 24, buf[:]); ok {
		t.Error("guest served after DropReplica")
	}
	ts := tr.TierStats()
	if ts.Cross.HostOffers != 1 || ts.Cross.HostedLines != 1 ||
		ts.Cross.HostRepairs != 1 || ts.Cross.HostDrops != 1 {
		t.Errorf("host stats = %+v", ts.Cross)
	}

	// A non-replicating tier may hold no replica lines, guests included.
	plain, mem2 := testTier(t, nil)
	if plain.OfferReplica(0, 5, mem2.PeekBlock(5)) {
		t.Error("non-replicating tier accepted a guest")
	}
}

func TestTierGuestsNeverServeDemand(t *testing.T) {
	tr, mem := testTier(t, func(cfg *Config) { cfg.Replicate = true })
	if !tr.OfferReplica(0, 5, mem.PeekBlock(5)) {
		t.Fatal("offer refused")
	}
	// A demand read of the hosted block must still miss to memory: guests
	// are repair sources, not primaries.
	if lat := tr.Access(10, addrOfBlock(5), cache.Read); lat != 106 {
		t.Errorf("demand read of hosted block = %d, want 106 (a miss)", lat)
	}
	if tr.CacheStats().ReadMisses != 1 {
		t.Error("hosted block served a demand access")
	}
}

// exercise runs a fixed deterministic workload against the tier: fills,
// writes, injected faults, replica traffic.
func exercise(tr *Protected, mem *cache.Memory) {
	in := fault.NewInjector(fault.Random, 1e-2, 16, 99)
	now := uint64(0)
	for i := 0; i < 400; i++ {
		blk := (i * 7) % 32
		now += 13
		if i%5 == 2 {
			mem.WriteWord(uint64(blk), 0, uint64(i))
			tr.Access(now, addrOfBlock(blk), cache.Write)
		} else {
			tr.Access(now, addrOfBlock(blk)+uint64(i%8)*8, cache.Read)
		}
		if i%17 == 0 {
			tr.Inject(in)
		}
	}
}

// TestTierResetByteIdentical pins the pooled-reuse contract: a reset tier
// re-running the same workload produces exactly the counters of a freshly
// constructed one.
func TestTierResetByteIdentical(t *testing.T) {
	build := func() (*Protected, *cache.Memory) {
		return testTier(t, func(cfg *Config) {
			cfg.Replicate = true
			cfg.DecayWindow = 4096
			cfg.Protect = core.ECCProt
			cfg.PortOccupancy = 4
		})
	}
	fresh, memF := build()
	exercise(fresh, memF)
	want, wantTier := fresh.CacheStats(), fresh.TierStats()

	reused, memR := build()
	exercise(reused, memR)
	reused.Reset()
	memR.Reset()
	exercise(reused, memR)
	if got := reused.CacheStats(); got != want {
		t.Errorf("demand stats after Reset:\n got %+v\nwant %+v", got, want)
	}
	if got := reused.TierStats(); !reflect.DeepEqual(got, wantTier) {
		t.Errorf("tier stats after Reset:\n got %+v\nwant %+v", got, wantTier)
	}
}

func TestTierConfigPanics(t *testing.T) {
	mem := cache.NewMemory(100, 64)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no protection", Config{Size: 1024, Assoc: 2, BlockSize: 64, Next: mem, Mem: mem}},
		{"no next", Config{Size: 1024, Assoc: 2, BlockSize: 64, Protect: core.ParityProt, Mem: mem}},
		{"bad geometry", Config{Size: 1000, Assoc: 2, BlockSize: 64, Protect: core.ParityProt, Next: mem, Mem: mem}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("New did not panic")
				}
			}()
			New(tc.cfg)
		})
	}
}

// TestTierRandomOperationsKeepTags drives random demand accesses, guest
// offers, repairs and drops, bit flips, single-line evictions and resets
// through a replicating
// tier with a far tier attached, and checks after every operation that
// each line's tag word still matches its fields (core.LineArray's
// invariants): every eviction and drop goes through LineArray.Invalidate.
func TestTierRandomOperationsKeepTags(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr, mem := testTier(t, func(cfg *Config) {
			cfg.Replicate = true
			cfg.DecayWindow = uint64(rng.Intn(3)) * 300
			cfg.Victim = core.VictimPolicy(1 + rng.Intn(4))
		})
		tr.SetCross(&sinkStub{acceptOffers: rng.Intn(2) == 0})
		in := fault.NewInjector(fault.Random, 1e-2, 16, seed)
		guest := make([]byte, 64)
		var word [8]byte
		for i := 0; i < 400; i++ {
			now := uint64(i * 11)
			blk := rng.Intn(48)
			var op string
			switch r := rng.Intn(20); {
			case r == 0:
				op = "offer"
				tr.OfferReplica(now, uint64(blk), guest)
			case r == 1:
				op = "repair"
				tr.RepairWord(now, uint64(blk), rng.Intn(8)*8, word[:])
			case r == 2:
				op = "drop"
				tr.DropReplica(uint64(blk))
			case r == 3:
				op = "inject"
				tr.Inject(in)
			case r == 4 && rng.Intn(10) == 0:
				op = "reset"
				tr.Reset()
			case r == 5:
				// Evictions are otherwise always followed by a reinstall
				// of the way; this one leaves the line invalid.
				op = "evict"
				if v := &tr.lines.Lines[rng.Intn(len(tr.lines.Lines))]; v.Valid {
					tr.evictLine(v, now)
				}
			case r < 9:
				op = "write"
				mem.WriteWord(uint64(blk), 0, uint64(i))
				tr.Access(now, addrOfBlock(blk), cache.Write)
			default:
				op = "read"
				tr.Access(now, addrOfBlock(blk)+uint64(rng.Intn(8)*8), cache.Read)
			}
			if err := tr.lines.CheckInvariants(); err != nil {
				t.Fatalf("seed %d: after op %d (%s): %v", seed, i, op, err)
			}
		}
	}
}
