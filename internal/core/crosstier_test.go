package core

import (
	"bytes"
	"testing"
)

// fakeSink records the client-side cross-tier calls the cache makes and
// plays a far tier with configurable behaviour.
type fakeSink struct {
	acceptOffers bool
	repairData   []byte // when non-nil, RepairWord serves from this block
	repairLat    uint64

	offers  []uint64
	repairs []uint64
	drops   []uint64
}

func (f *fakeSink) OfferReplica(_ uint64, blockAddr uint64, data []byte) bool {
	f.offers = append(f.offers, blockAddr)
	return f.acceptOffers
}

func (f *fakeSink) RepairWord(_ uint64, blockAddr uint64, off int, dst []byte) (uint64, bool) {
	f.repairs = append(f.repairs, blockAddr)
	if f.repairData == nil {
		return 0, false
	}
	copy(dst[:8], f.repairData[off:off+8])
	return f.repairLat, true
}

func (f *fakeSink) DropReplica(blockAddr uint64) { f.drops = append(f.drops, blockAddr) }

// livePrimaries fills the given set with recently-touched primaries so no
// way in it is dead or invalid (8-set 2-way geometry: blocks s and s+8).
func livePrimaries(c *Cache, now uint64, set int) {
	c.Load(now, addrOfBlock(set))
	c.Load(now+1, addrOfBlock(set+8))
}

// TestCrossTierOfferOnShortfall: when in-cache replication cannot place a
// replica (every candidate way is live under DeadOnly), the shortfall is
// offered to the far tier instead.
func TestCrossTierOfferOnShortfall(t *testing.T) {
	sink := &fakeSink{acceptOffers: true}
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl = ReplConfig{DecayWindow: 1 << 20, Victim: DeadOnly}
		cfg.CrossTier = sink
	})
	// Vertical distance is 4: block 0's replica set is 4. Keep it live.
	livePrimaries(c, 0, 4)
	c.Load(10, addrOfBlock(0))
	c.Store(11, addrOfBlock(0)) // ReplStores trigger; in-cache attempt fails

	if len(sink.offers) != 1 || sink.offers[0] != 0 {
		t.Fatalf("far tier saw offers %v, want [0]", sink.offers)
	}
	cs := c.CrossTierStats()
	if cs.Offers != 1 || cs.Accepted != 1 {
		t.Errorf("client stats = %+v, want 1 offer / 1 accepted", cs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrossTierNoOfferWhenReplicaPlaced: a successful in-cache replica
// leaves nothing to offer — the far tier is a spillway, not a mirror.
func TestCrossTierNoOfferWhenReplicaPlaced(t *testing.T) {
	sink := &fakeSink{acceptOffers: true}
	c, _ := testCache(t, func(cfg *Config) { cfg.CrossTier = sink })
	c.Load(0, addrOfBlock(0))
	c.Store(1, addrOfBlock(0)) // default window-0 decay: replica placed in-cache
	if len(sink.offers) != 0 {
		t.Errorf("far tier saw offers %v, want none", sink.offers)
	}
}

// TestCrossTierStoreSendsDrop: every store notifies the far tier that any
// parked copy is stale, whether or not one exists.
func TestCrossTierStoreSendsDrop(t *testing.T) {
	sink := &fakeSink{}
	c, _ := testCache(t, func(cfg *Config) { cfg.CrossTier = sink })
	c.Store(0, addrOfBlock(3))
	if len(sink.drops) != 1 || sink.drops[0] != 3 {
		t.Fatalf("far tier saw drops %v, want [3]", sink.drops)
	}
	if cs := c.CrossTierStats(); cs.Drops != 1 {
		t.Errorf("Drops = %d, want 1", cs.Drops)
	}
}

// TestCrossTierRepairRung: a detected error with no in-cache replica and
// no duplicate falls through to the far tier, whose intact word repairs
// the line at the far tier's quoted latency.
func TestCrossTierRepairRung(t *testing.T) {
	sink := &fakeSink{repairLat: 9}
	c, mem := testCache(t, func(cfg *Config) {
		cfg.Repl = ReplConfig{DecayWindow: 1 << 20, Victim: DeadOnly}
		cfg.CrossTier = sink
	})
	livePrimaries(c, 0, 4) // block 0's replica set stays live: no in-cache replica
	addr := addrOfBlock(0)
	c.Load(10, addr)
	sink.repairData = append([]byte(nil), mem.PeekBlock(0)...)

	if !c.CorruptPrimary(addr, 3) {
		t.Fatal("primary not resident")
	}
	lat := c.Load(20, addr)
	if lat != 1+9 {
		t.Errorf("repaired load latency = %d, want 10 (hit + far-tier repair)", lat)
	}
	s := c.Stats()
	if s.ErrorsDetected != 1 {
		t.Fatalf("ErrorsDetected = %d, want 1", s.ErrorsDetected)
	}
	cs := c.CrossTierStats()
	if cs.Repairs != 1 || cs.Repaired != 1 {
		t.Errorf("client repair stats = %+v, want 1/1", cs)
	}
	// The line is healed: a later load sees no error.
	before := c.Stats().ErrorsDetected
	c.Load(30, addr)
	if c.Stats().ErrorsDetected != before {
		t.Error("line still corrupt after far-tier repair")
	}
}

// TestCrossTierRepairMissFallsThrough: when the far tier has nothing, the
// ladder continues (clean line: refetch from below recovers).
func TestCrossTierRepairMissFallsThrough(t *testing.T) {
	sink := &fakeSink{} // repairData nil: every repair misses
	c, _ := testCache(t, func(cfg *Config) {
		cfg.Repl = ReplConfig{DecayWindow: 1 << 20, Victim: DeadOnly}
		cfg.CrossTier = sink
	})
	livePrimaries(c, 0, 4)
	addr := addrOfBlock(0)
	c.Load(10, addr)
	c.CorruptPrimary(addr, 5)
	c.Load(20, addr)
	s := c.Stats()
	if s.ErrorsDetected != 1 || s.RecoveredByL2 != 1 {
		t.Errorf("stats = detected %d / fromL2 %d, want 1/1", s.ErrorsDetected, s.RecoveredByL2)
	}
	if cs := c.CrossTierStats(); cs.Repairs != 1 || cs.Repaired != 0 {
		t.Errorf("client repair stats = %+v, want 1 consult / 0 repaired", cs)
	}
}

// TestHostOfferInstallsGuest: the host side accepts a far-tier block into
// a dead way of its home set as a guest replica line, and serves its
// words back until dropped.
func TestHostOfferInstallsGuest(t *testing.T) {
	c, mem := testCache(t, nil) // window-0 decay: ways are dead immediately
	blk := mem.PeekBlock(5)
	if !c.OfferReplica(0, 5, blk) {
		t.Fatal("offer refused")
	}
	cs := c.CrossTierStats()
	if cs.HostOffers != 1 || cs.HostedLines != 1 {
		t.Fatalf("host stats = %+v, want 1 offer / 1 hosted", cs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}

	var buf [8]byte
	lat, ok := c.RepairWord(1, 5, 16, buf[:])
	if !ok {
		t.Fatal("RepairWord missed a hosted guest")
	}
	if want := c.cfg.HitLatency + 1; lat != want {
		t.Errorf("repair latency = %d, want %d", lat, want)
	}
	if !bytes.Equal(buf[:], blk[16:24]) {
		t.Error("repair word does not match the offered block")
	}

	c.DropReplica(5)
	if _, ok := c.RepairWord(2, 5, 16, buf[:]); ok {
		t.Error("guest served a repair after DropReplica")
	}
	if cs := c.CrossTierStats(); cs.HostDrops != 1 {
		t.Errorf("HostDrops = %d, want 1", cs.HostDrops)
	}
}

// TestHostOfferRefusals: offers are refused when the scheme cannot hold
// replicas, when the geometry mismatches, when the block is already
// resident, and when no dead or invalid way exists.
func TestHostOfferRefusals(t *testing.T) {
	blk := make([]byte, 64)

	c, _ := testCache(t, func(cfg *Config) { cfg.Scheme = BaseP() })
	if c.OfferReplica(0, 5, blk) {
		t.Error("non-replicating scheme accepted a guest")
	}

	c, _ = testCache(t, nil)
	if c.OfferReplica(0, 5, blk[:32]) {
		t.Error("size-mismatched offer accepted")
	}
	c.Load(0, addrOfBlock(5))
	if c.OfferReplica(1, 5, blk) {
		t.Error("offer accepted for a block already resident as a primary")
	}

	c, _ = testCache(t, func(cfg *Config) {
		cfg.Repl = ReplConfig{DecayWindow: 1 << 20, Victim: DeadOnly}
	})
	livePrimaries(c, 0, 5%8)
	if c.OfferReplica(10, 5, blk) {
		t.Error("offer accepted into a set with no dead or invalid way")
	}
}

// TestDropReplicaSparesOwnReplicas: DropReplica has authority over guests
// only — the cache's own replicas mirror its own primaries, which the far
// tier did not write.
func TestDropReplicaSparesOwnReplicas(t *testing.T) {
	c, _ := testCache(t, nil)
	addr := addrOfBlock(0)
	c.Load(0, addr)
	c.Store(1, addr) // places an in-cache replica (window-0 decay)
	if len(c.findReplicas(0)) != 1 {
		t.Fatal("setup: no in-cache replica placed")
	}
	c.DropReplica(0)
	if len(c.findReplicas(0)) != 1 {
		t.Error("DropReplica invalidated the cache's own replica")
	}
	if cs := c.CrossTierStats(); cs.HostDrops != 0 {
		t.Errorf("HostDrops = %d, want 0", cs.HostDrops)
	}
}

// TestHostGuestCorruptionDropped: a corrupt guest must never serve a
// repair — it is detected by its own parity and invalidated on the spot.
func TestHostGuestCorruptionDropped(t *testing.T) {
	c, mem := testCache(t, nil)
	if !c.OfferReplica(0, 5, mem.PeekBlock(5)) {
		t.Fatal("offer refused")
	}
	// Flip a bit in the hosted copy directly (guests have no primary, so
	// the Corrupt* helpers do not reach them).
	base := c.arr.HomeSet(5) * c.cfg.Assoc
	var guest *Line
	for w := 0; w < c.cfg.Assoc; w++ {
		if ln := &c.arr.Lines[base+w]; ln.Valid && ln.Guest {
			guest = ln
		}
	}
	if guest == nil {
		t.Fatal("no guest line installed")
	}
	guest.Data[17] ^= 0x10

	var buf [8]byte
	if _, ok := c.RepairWord(1, 5, 16, buf[:]); ok {
		t.Error("corrupt guest served a repair")
	}
	cs := c.CrossTierStats()
	if cs.HostCorrupt != 1 {
		t.Errorf("HostCorrupt = %d, want 1", cs.HostCorrupt)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
