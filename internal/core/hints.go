package core

// Software-directed replication (the paper's §6 future work): "controlling
// replication using software mechanisms that can direct how many replicas
// are needed for each line, when such replication should be initiated, and
// what blocks should not be replicated."
//
// The hardware analogue is a set of range registers (or page-table bits)
// the software programs; the cache consults them before spending a
// replication attempt. Config.Hints is that register file: an ordered list
// of address ranges, which the swhints experiment uses to exempt streaming
// data (which has no reuse worth protecting) and which can give critical
// structures extra copies.

// Hint is a software directive for one block.
type Hint struct {
	// Replicate enables replication for the block. When false the block
	// is never replicated (it still gets the scheme's base protection).
	Replicate bool
	// Replicas overrides the configured replica count when > 0.
	Replicas int
}

// AddrRange is a half-open byte-address range [Start, End) and the hint
// for the blocks in it.
type AddrRange struct {
	Start, End uint64
	Hint       Hint
}

// hintFor returns the hint of the first range holding addr, or
// replicate-at-the-configured-count when none does.
func hintFor(ranges []AddrRange, addr uint64) Hint {
	for _, r := range ranges {
		if addr >= r.Start && addr < r.End {
			return r.Hint
		}
	}
	return Hint{Replicate: true}
}

// replicaQuota returns how many replicas the block may have, after
// consulting the software hints.
func (c *Cache) replicaQuota(blockAddr uint64) int {
	h := hintFor(c.cfg.Hints, c.arr.Addr(blockAddr))
	if !h.Replicate {
		return 0
	}
	if h.Replicas > 0 {
		return h.Replicas
	}
	return c.cur.Replicas
}
