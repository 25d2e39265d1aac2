package core

import (
	"repro/internal/cache"
	"repro/internal/ecc"
)

// Load performs a data-cache read of the aligned 64-bit word containing
// addr and returns its latency in cycles, including any error-recovery
// cost. Scheme-dependent hit latencies follow §3.2:
//
//	BaseP                        1
//	BaseECC                      1 + ECCCheckLatency (1 if speculative)
//	ICR-P-PS                     1
//	ICR-P-PP    replicated       2 (parallel compare), else 1
//	ICR-ECC-PS  replicated       1 (parity), else 1 + ECCCheckLatency
//	ICR-ECC-PP                   2
func (c *Cache) Load(now uint64, addr uint64) uint64 {
	ba := c.arr.BlockAddr(addr)
	c.stats.Reads++
	c.energy.L1Reads++

	if ln := c.arr.Primary(ba); ln != nil {
		c.arr.NoteAccess(ln, addr)
		c.stats.ReadHits++
		if ln.prefetched {
			ln.prefetched = false
			c.stats.PrefetchHits++
		}
		replicas := c.replicasOf(ln)
		if len(replicas) > 0 {
			c.stats.ReadHitsWithReplica++
		}
		// The Kim & Somani r-cache is probed alongside every dL1 load;
		// that per-access lookup is exactly the energy ICR avoids.
		var dup []byte
		if c.cfg.Duplicates != nil {
			if d, ok := c.cfg.Duplicates.Get(ba); ok {
				dup = d
				c.stats.ReadHitsWithDuplicate++
			}
			c.energy.RCacheReads++
		}
		lat := c.loadHitLatency(len(replicas) > 0)
		lat += c.verifyLoad(now, ln, replicas, dup, addr)
		c.touch(ln, now)
		for _, rep := range replicas {
			if c.cur.Lookup == LookupParallel {
				// The parallel scheme reads the replica array too.
				c.energy.L1Reads++
				c.touch(rep, now)
			}
		}
		return lat
	}

	// Primary miss.
	c.stats.ReadMisses++

	// §5.6 performance mode: a leftover replica can serve the miss with
	// one extra cycle instead of the L2 round trip — after its parity
	// verifies (a corrupted leftover must not silently serve).
	if c.cfg.Repl.LeaveReplicas {
		if rep := c.intactReplica(ba); rep != nil {
			c.stats.ReplicaServedMisses++
			// Fill clears the reused way's guest, spill and prefetch
			// bits; its recode equals the replica's verified parity.
			v := c.evictFor(c.arr.HomeSet(ba), now)
			c.arr.Fill(v, ba, rep.Data)
			c.touch(v, now)
			c.energy.L1Reads++  // replica array read
			c.energy.L1Writes++ // primary install
			return c.cfg.HitLatency + 1
		}
	}

	// Full miss: fetch from L2/memory.
	lat := c.cfg.HitLatency + c.cfg.Next.Access(now+c.cfg.HitLatency, addr, cache.Read)
	v := c.evictFor(c.arr.HomeSet(ba), now)
	c.fill(v, ba, now)
	c.depositDuplicate(v)
	c.prefetchNext(ba, now)

	// LS schemes also replicate at fill time (§3.1 mechanism (i)).
	if c.cfg.Scheme.Trigger == ReplLoadsStores {
		c.stats.ReplAttempts++
		created := c.replicate(v, now)
		if created >= 1 {
			c.stats.ReplSuccesses++
		}
		if created >= 2 {
			c.stats.ReplDoubles++
		}
	}
	return lat
}

// Store performs a data-cache write of the aligned 64-bit word containing
// addr. Stores are buffered and always complete in one cycle for the
// pipeline (§3.2); miss handling proceeds in the background and is
// reflected in statistics and energy only.
func (c *Cache) Store(now uint64, addr uint64) uint64 {
	ba := c.arr.BlockAddr(addr)
	c.stats.Writes++
	ln := c.arr.Primary(ba)
	if ln != nil {
		c.arr.NoteAccess(ln, addr)
	}
	c.storeSeq++
	value := storeValue(addr, c.storeSeq)

	if c.cfg.WritePolicy == cache.WriteThrough {
		return c.storeWriteThrough(now, addr, ba, ln, value)
	}

	if ln != nil {
		c.stats.WriteHits++
		if ln.prefetched {
			ln.prefetched = false
			c.stats.PrefetchHits++
		}
	} else {
		c.stats.WriteMisses++
		// Write-allocate: fetch, then write.
		c.cfg.Next.Access(now+c.cfg.HitLatency, addr, cache.Read)
		ln = c.evictFor(c.arr.HomeSet(ba), now)
		c.fill(ln, ba, now)
	}
	c.writeWord(ln, addr, value)
	ln.Dirty = true
	c.touch(ln, now)
	c.depositDuplicate(ln)

	// Two-tier ICR: a copy parked in the far tier no longer matches the
	// just-written block and must not serve future repairs.
	if c.cfg.CrossTier != nil {
		c.cfg.CrossTier.DropReplica(ba)
		c.cross.Drops++
	}

	if c.cfg.Scheme.HasReplication() {
		// Both S and LS replicate at writes (§3.1 mechanism (ii)); any
		// existing replicas are updated in place. Every write counts as a
		// replication attempt; the attempt succeeds only if it *creates*
		// a new replica. Stores to already-replicated hot blocks are thus
		// attempts that create nothing, which is what keeps the measured
		// replication ability "relatively low" even while loads-with-
		// replica stays high (§5.1): the hot data is already duplicated.
		replicas := c.replicasOf(ln)
		nrep := len(replicas) // replicate() below reuses the scratch buffer
		for _, rep := range replicas {
			c.writeWord(rep, addr, value)
			c.touch(rep, now)
		}
		c.stats.ReplAttempts++
		created := 0
		if nrep < c.replicaQuota(ba) {
			created = c.replicate(ln, now)
		}
		if created >= 1 {
			c.stats.ReplSuccesses++
			// A "double" is an attempt that achieved the full two-replica
			// state (Fig 3: "three copies of a block exist").
			if nrep+created >= 2 {
				c.stats.ReplDoubles++
			}
		}
	}
	c.revalVuln(ln, now)
	return c.cfg.HitLatency
}

// storeWriteThrough implements the §5.8 comparison point: every store is
// forwarded to the next level (through the coalescing write buffer when
// configured), lines never become dirty, and write misses do not allocate.
// ln is the block's resident primary, or nil.
func (c *Cache) storeWriteThrough(now uint64, addr, ba uint64, ln *Line, value uint64) uint64 {
	if ln != nil {
		c.stats.WriteHits++
		c.writeWord(ln, addr, value)
		c.touch(ln, now)
	} else {
		c.stats.WriteMisses++
	}
	// Architectural memory is updated immediately: read-modify-write of
	// the stored word, in place.
	c.cfg.Mem.WriteWord(ba, int(addr)&(c.cfg.BlockSize-1), value)

	if c.cfg.WriteBuf != nil {
		stall := c.cfg.WriteBuf.Add(now, ba)
		return c.cfg.HitLatency + stall
	}
	return c.cfg.HitLatency + c.cfg.Next.Access(now+c.cfg.HitLatency, addr, cache.Write)
}

// prefetchNext brings block ba+1 into a dead or invalid way of its home
// set (never displacing live primaries or replicas): the next-line
// prefetcher of the dead-block literature (refs [14], [7]), competing with
// replication for the same recycled space.
func (c *Cache) prefetchNext(ba uint64, now uint64) {
	if !c.cfg.PrefetchIntoDead {
		return
	}
	nb := ba + 1
	if c.arr.Primary(nb) != nil {
		return
	}
	victim := c.arr.SpareWay(c.arr.HomeSet(nb), now)
	if victim == nil {
		return
	}
	c.evict(victim, now)
	c.cfg.Next.Access(now, c.arr.Addr(nb), cache.Read)
	c.fill(victim, nb, now)
	victim.prefetched = true
	c.stats.PrefetchFills++
}

// intactReplica returns a resident replica of the block whose full-line
// parity verifies, or nil.
func (c *Cache) intactReplica(ba uint64) *Line {
	for _, rep := range c.findReplicas(ba) {
		if ecc.CheckParityLineRange(rep.Data, rep.Parity, 0, c.cfg.BlockSize) == ecc.OK {
			return rep
		}
		c.stats.ErrorsDetected++
	}
	return nil
}

// depositDuplicate copies a line into the attached duplication cache.
func (c *Cache) depositDuplicate(ln *Line) {
	if c.cfg.Duplicates == nil {
		return
	}
	c.cfg.Duplicates.Put(ln.BlockAddr, ln.Data)
	c.energy.RCacheWrites++
}

// loadHitLatency returns the scheme latency for an error-free load hit.
func (c *Cache) loadHitLatency(replicated bool) uint64 {
	s := c.cfg.Scheme
	switch {
	case !s.HasReplication():
		if s.Protection == ECCProt && !s.SpeculativeECC {
			return c.cfg.HitLatency + ECCCheckLatency
		}
		return c.cfg.HitLatency
	case c.cur.Lookup == LookupParallel:
		if replicated || s.Protection == ECCProt {
			return c.cfg.HitLatency + 1
		}
		return c.cfg.HitLatency
	default: // LookupSerial
		if !replicated && s.Protection == ECCProt {
			return c.cfg.HitLatency + ECCCheckLatency
		}
		return c.cfg.HitLatency
	}
}

// ---------------------------------------------------------------------------
// Replication engine
// ---------------------------------------------------------------------------

// replicate tries to create replicas for a primary line up to the
// configured count, walking the distance list in order (§3.1 "Where do we
// replicate?" / "How aggressively should we replicate?"). It returns the
// number of replicas created.
func (c *Cache) replicate(primary *Line, now uint64) int {
	ba := primary.BlockAddr
	existing := c.replicasOf(primary)
	want := c.replicaQuota(ba) - len(existing)
	if want <= 0 {
		return 0
	}
	// Sets already holding a replica of this block are skipped. The used
	// list is scratch on the Cache (the distance list is short, so a
	// linear membership scan beats a map and allocates nothing).
	used := c.usedSets[:0]
	for _, rep := range existing {
		used = append(used, rep.idx/c.cfg.Assoc)
	}
	created := 0
	for i := range c.arr.dists {
		if created >= want {
			break
		}
		set := c.candidateSet(ba, i)
		skip := false
		for _, u := range used {
			if u == set {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		v := c.arr.ReplicaWay(set, primary, c.cur.Victim, now)
		if v == nil {
			continue
		}
		if v.Valid {
			c.evictReplicaSite(v, now)
		}
		c.installReplica(v, primary, now)
		used = append(used, set)
		created++
	}
	c.usedSets = used
	// Two-tier ICR: a shortfall is offered to the far tier, which may
	// park a copy in its own dead space. Cross-tier copies are counted
	// apart from ReplSuccesses — they protect the block but are not
	// in-cache replicas.
	if created < want && c.cfg.CrossTier != nil {
		c.cross.Offers++
		if c.cfg.CrossTier.OfferReplica(now, ba, primary.Data) {
			c.cross.Accepted++
		}
	}
	return created
}

// evictReplicaSite frees a resident line chosen as a replica or guest
// site; a primary evicted for one is a dead eviction.
func (c *Cache) evictReplicaSite(v *Line, now uint64) {
	if !v.Replica {
		c.stats.DeadEvictions++
	}
	c.evict(v, now)
}

// installReplica copies a primary into a victim way as a replica.
func (c *Cache) installReplica(v *Line, primary *Line, now uint64) {
	c.arr.InstallReplica(v, primary)
	c.touch(v, now)
	c.energy.L1Writes++ // the duplicate write (§5.8 energy cost)
	c.energy.ParityOps++
}
