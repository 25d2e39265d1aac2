package core

// Cross-tier replication (two-tier ICR). The ICR L1 participates in both
// directions: as a *client* it offers replication shortfalls to
// cfg.CrossTier and consults it during load recovery, and as a *host* it
// implements ReplicaSink itself, letting a protected second tier park
// copies of its own blocks in dead L1 space. Hosted lines are ordinary
// replica lines with the guest bit set: every existing invariant —
// "replicas only under a replicating scheme", victim-policy behavior,
// write-path replica refresh — applies to them unchanged, but only guest
// lines serve cross-tier repairs or are dropped by the far tier (the
// cache's own replicas mirror its own primaries, which the far tier has
// no authority over).

// CrossStats counts cross-tier replication events, kept apart from Stats
// so the single-tier counters (pinned by the equivalence goldens) are
// untouched when cross-tier mode is off.
type CrossStats struct {
	// Client side: this cache pushing its blocks to the far tier.
	Offers   uint64 // replication shortfalls offered to the far tier
	Accepted uint64 // offers the far tier accepted
	Repairs  uint64 // recovery-ladder consultations of the far tier
	Repaired uint64 // consultations that supplied an intact word
	Drops    uint64 // drop notifications sent to the far tier on store

	// Host side: this cache hosting the far tier's blocks.
	HostOffers  uint64 // offers received
	HostedLines uint64 // offers accepted and installed
	HostRepairs uint64 // repair words served to the far tier
	HostCorrupt uint64 // hosted copies found corrupt and dropped
	HostDrops   uint64 // hosted copies invalidated by DropReplica
}

// Add accumulates another CrossStats into s.
func (s *CrossStats) Add(o CrossStats) {
	s.Offers += o.Offers
	s.Accepted += o.Accepted
	s.Repairs += o.Repairs
	s.Repaired += o.Repaired
	s.Drops += o.Drops
	s.HostOffers += o.HostOffers
	s.HostedLines += o.HostedLines
	s.HostRepairs += o.HostRepairs
	s.HostCorrupt += o.HostCorrupt
	s.HostDrops += o.HostDrops
}

// CrossTierStats returns a snapshot of the cache's cross-tier counters.
func (c *Cache) CrossTierStats() CrossStats { return c.cross }

var _ ReplicaSink = (*Cache)(nil)

// OfferReplica implements ReplicaSink: the far tier proposes parking a
// copy of one of its blocks here. The offer is accepted only when it can
// be hosted as a legal replica line — the scheme must replicate (a
// non-replicating scheme may hold no replica lines), the geometry must
// match, and the block's home set must have an invalid or dead
// non-replica way. Live primaries and existing replicas are never
// displaced for a guest.
func (c *Cache) OfferReplica(now uint64, blockAddr uint64, data []byte) bool {
	c.cross.HostOffers++
	if !c.cfg.Scheme.HasReplication() || len(data) != c.cfg.BlockSize {
		return false
	}
	if c.arr.Primary(blockAddr) != nil || c.arr.anyReplica(blockAddr) {
		// Already covered here: the resident copy is at least as fresh.
		return false
	}
	v := c.arr.SpareWay(c.arr.HomeSet(blockAddr), now)
	if v == nil {
		return false
	}
	if v.Valid {
		c.evictReplicaSite(v, now) // a dead primary: the normal dead-eviction path
	}
	c.arr.InstallGuest(v, blockAddr, data)
	c.touch(v, now)
	if c.cfg.Meter != nil {
		c.cfg.Meter.AddL1Write(1)
		c.cfg.Meter.AddParity(1)
	}
	c.cross.HostedLines++
	return true
}

// RepairWord implements ReplicaSink: supply the aligned 64-bit word at
// byte offset off of an intact hosted (guest) copy of blockAddr, if one
// exists (LineArray.RepairFromGuest). The latency is the cost of reaching
// this array from the far tier: a hit plus one transfer cycle.
func (c *Cache) RepairWord(_ uint64, blockAddr uint64, off int, dst []byte) (uint64, bool) {
	if !c.arr.RepairFromGuest(blockAddr, off, dst, &c.cross) {
		return 0, false
	}
	if c.cfg.Meter != nil {
		c.cfg.Meter.AddL1Read(1)
		c.cfg.Meter.AddParity(1)
	}
	return c.cfg.HitLatency + 1, true
}

// DropReplica implements ReplicaSink: the far tier rewrote the block, so
// any guest copy parked here is stale and must not serve future repairs.
// The scan is inline and scratch-free: the far tier's write path runs
// inside this cache's own eviction handling.
func (c *Cache) DropReplica(blockAddr uint64) {
	if c.cfg.Scheme.HasReplication() {
		c.arr.DropGuests(blockAddr, &c.cross)
	}
}
