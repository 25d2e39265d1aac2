package core

// Software-directed replication (the paper's §6 future work): "controlling
// replication using software mechanisms that can direct how many replicas
// are needed for each line, when such replication should be initiated, and
// what blocks should not be replicated."
//
// The hardware analogue is a pair of range registers (or page-table bits)
// the software programs; the cache consults them before spending a
// replication attempt. This file implements that interface plus an
// address-range policy, which examples and the ablation harness use to
// exempt streaming data (which has no reuse worth protecting) and to give
// critical structures extra copies.

// Hint is a software directive for one block.
type Hint struct {
	// Replicate enables replication for the block. When false the block
	// is never replicated (it still gets the scheme's base protection).
	Replicate bool
	// Replicas overrides the configured replica count when > 0.
	Replicas int
}

// HintPolicy maps a block's base byte address to a Hint. Implementations
// must be deterministic and cheap: the cache consults the policy on every
// replication trigger.
type HintPolicy interface {
	Hint(addr uint64) Hint
}

// ReplicateAll is the default policy: replicate everything at the
// configured count.
type ReplicateAll struct{}

var _ HintPolicy = ReplicateAll{}

// Hint implements HintPolicy.
func (ReplicateAll) Hint(uint64) Hint { return Hint{Replicate: true} }

// AddrRange is a half-open byte-address range [Start, End).
type AddrRange struct {
	Start, End uint64
	Hint       Hint
}

// RangePolicy applies the first matching range's hint, falling back to a
// default. It models software-programmed range registers.
type RangePolicy struct {
	Ranges  []AddrRange
	Default Hint
}

var _ HintPolicy = (*RangePolicy)(nil)

// NewRangePolicy returns a RangePolicy that replicates by default.
func NewRangePolicy(ranges ...AddrRange) *RangePolicy {
	return &RangePolicy{Ranges: ranges, Default: Hint{Replicate: true}}
}

// Hint implements HintPolicy.
func (p *RangePolicy) Hint(addr uint64) Hint {
	for _, r := range p.Ranges {
		if addr >= r.Start && addr < r.End {
			return r.Hint
		}
	}
	return p.Default
}

// replicaQuota returns how many replicas the block may have, after
// consulting the software hint policy (nil means replicate-all).
func (c *Cache) replicaQuota(blockAddr uint64) int {
	if c.cfg.Hints == nil {
		return c.cur.Replicas
	}
	h := c.cfg.Hints.Hint(c.arr.Addr(blockAddr))
	if !h.Replicate {
		return 0
	}
	if h.Replicas > 0 {
		return h.Replicas
	}
	return c.cur.Replicas
}
