package core

import (
	"slices"

	"repro/internal/cache"
)

// DecayMode selects the dead-block prediction mechanism.
type DecayMode uint8

// Decay modes.
const (
	// FixedWindow is the paper's mechanism (Kaxiras cache decay, ref
	// [10]): a 2-bit counter per line ticked every DecayWindow/4 cycles.
	FixedWindow DecayMode = iota
	// Adaptive is a timekeeping-style predictor (after Hu et al., ref
	// [7]): each line tracks an EWMA of its inter-access gap and is
	// declared dead once idle for several times that gap. It needs no
	// global window parameter.
	Adaptive
)

// String returns the mode name.
func (d DecayMode) String() string {
	if d == Adaptive {
		return "adaptive"
	}
	return "fixed-window"
}

// ReplConfig controls the replication design-space axes of §3.1.
type ReplConfig struct {
	// Distances is the ordered list of set offsets tried when looking for
	// a replication site: the paper's "distance-k" with an optional
	// multi-attempt fallback. Offsets are taken modulo the set count.
	// Nil defaults to a single attempt at N/2 ("vertical replication").
	Distances []int

	// Replicas is the maximum number of replicas maintained per block
	// (>= 1). With Replicas == 2 and Distances == [N/2, N/4], the first
	// replica tries N/2 and the second N/4, as in Figure 3.
	Replicas int

	// Victim selects the replacement policy at a replication site.
	// Defaults to DeadOnly.
	Victim VictimPolicy

	// DecayWindow is the number of cycles a line must go unreferenced to
	// be declared dead. 0 means a block is dead as soon as its access
	// completes (the paper's most aggressive setting, §5.1-5.2). The
	// mechanism is the Kaxiras-style 2-bit counter per line, ticked every
	// DecayWindow/4 cycles and reset on access; a line is dead when the
	// counter saturates.
	DecayWindow uint64

	// LeaveReplicas keeps replicas resident when their primary copy is
	// evicted (§5.6): a later miss on the block can then be served from
	// the replica with one extra cycle instead of an L2 access. When
	// false, evicting a primary invalidates its replicas.
	LeaveReplicas bool

	// Decay selects the dead-block predictor. FixedWindow (default) is
	// the paper's mechanism; Adaptive is the timekeeping-style
	// alternative (DecayWindow is then ignored).
	Decay DecayMode
}

// VerticalDistances returns the single-attempt distance-N/2 placement used
// for "vertical replication".
func VerticalDistances(sets int) []int { return []int{sets / 2} }

// HorizontalDistances returns distance-0 placement ("horizontal
// replication": replicas share the primary's set).
func HorizontalDistances() []int { return []int{0} }

// Power2Distances returns the paper's "power-2" multi-attempt fallback
// sequence starting at N/2: N/2, N/4, 3N/4, N/8, ... with the given number
// of attempts.
func Power2Distances(sets, attempts int) []int {
	if attempts <= 0 {
		return nil
	}
	out := make([]int, 0, attempts)
	out = append(out, sets/2)
	step := sets / 4
	for len(out) < attempts && step > 0 {
		out = append(out, step) // N/2 - N/4, then N/8 ... below
		if len(out) < attempts {
			out = append(out, sets/2+step) // N/2 + N/4, ...
		}
		step /= 2
	}
	return out[:min(len(out), attempts)]
}

// Config describes one ICR data cache.
type Config struct {
	// Geometry. The paper's dL1 is 16KB, 4-way, 64-byte blocks.
	Size      int
	Assoc     int
	BlockSize int

	// HitLatency is the base access latency (1 cycle in Table 1).
	HitLatency uint64

	// Scheme selects the protection/replication scheme.
	Scheme Scheme

	// Repl configures the replication design space (ignored for Base
	// schemes).
	Repl ReplConfig

	// WritePolicy is WriteBack for every scheme in the paper except the
	// §5.8 write-through comparison. Defaults to WriteBack.
	WritePolicy cache.WritePolicy

	// WriteBuf, if set with WriteThrough, buffers stores on their way to
	// the next level (the paper uses an 8-entry coalescing buffer).
	WriteBuf *cache.WriteBuffer

	// Next is the timing model of the next level (L2).
	Next cache.Level

	// Mem holds architectural block content (the bottom of the
	// hierarchy; assumed error-free, as in the paper).
	Mem *cache.Memory

	// Hints lets software direct replication per block: which blocks to
	// exempt and how many replicas to keep (the paper's §6 future work).
	// The first range holding a block's address decides; a block in no
	// range is replicated at Repl.Replicas.
	Hints []AddrRange

	// PrefetchIntoDead enables the competing use of dead lines from the
	// prefetching literature the paper builds on (refs [14], [7]): a miss
	// fill also fetches the next sequential block into a dead/invalid way
	// of its home set. Composable with replication, which then competes
	// for the same dead real estate.
	PrefetchIntoDead bool

	// Duplicates, if non-nil, attaches a separate duplication cache in
	// the style of Kim & Somani (the paper's reference [11], implemented
	// in internal/rcache): dL1 fills and stores deposit copies, and a
	// parity error with no in-cache replica is repaired from it. This is
	// the baseline ICR is positioned against.
	Duplicates DuplicateStore

	// CrossTier, if non-nil, is another protected tier willing to host
	// replicas of this cache's blocks in its own dead space (two-tier
	// ICR). Replication shortfalls are offered to it, the recovery ladder
	// consults it after in-cache replicas and duplicates but before
	// ECC/refetch, and stores drop its stale copies. Nil (the default)
	// changes nothing.
	CrossTier ReplicaSink
}

// ReplicaSink is a protected tier that can host replicas of another
// tier's blocks in space it considers dead. Both the ICR L1 (Cache) and
// the protected second tier (internal/tier) implement it, so replicas can
// flow in either direction. Implementations must be allocation-free on
// every method: all three sit on the simulated access path.
type ReplicaSink interface {
	// OfferReplica proposes hosting a copy of a block. The sink copies
	// data (one full line) if it accepts and reports whether it did;
	// declining is always legal (no dead space, block already resident).
	OfferReplica(now uint64, blockAddr uint64, data []byte) bool
	// RepairWord attempts to supply the aligned 64-bit word at byte
	// offset off of a hosted replica, copying 8 bytes into dst. It
	// returns the repair latency in cycles (the cost of reaching this
	// tier, not an L1 probe) and whether an intact replica was found.
	// Corrupt replicas are dropped, not returned.
	RepairWord(now uint64, blockAddr uint64, off int, dst []byte) (latency uint64, ok bool)
	// DropReplica invalidates any hosted replica of the block (called
	// when the owning tier rewrites it, making remote copies stale).
	DropReplica(blockAddr uint64)
}

// DuplicateStore is a separate structure holding protected copies of dL1
// blocks (the Kim & Somani r-cache). Implementations are assumed
// internally error-free (small enough to afford full ECC).
type DuplicateStore interface {
	// Put deposits a copy of a block (data is copied by the callee).
	Put(blockAddr uint64, data []byte)
	// Get returns the stored duplicate's bytes, if present. The slice may
	// alias the store's internal buffers: it is valid only until the next
	// Put and the caller must not retain or mutate it.
	Get(blockAddr uint64) ([]byte, bool)
}

func (c *Config) withDefaults() Config {
	out := *c
	// A pooled cache outlives the run that built it, so it keeps its own
	// copy of the caller's ranges.
	out.Hints = slices.Clone(out.Hints)
	if out.HitLatency == 0 {
		out.HitLatency = 1
	}
	if out.WritePolicy == 0 {
		out.WritePolicy = cache.WriteBack
	}
	if out.Scheme.HasReplication() {
		sets := out.Size / (out.Assoc * out.BlockSize)
		if out.Repl.Distances == nil {
			out.Repl.Distances = VerticalDistances(sets)
		}
		if out.Repl.Replicas <= 0 {
			out.Repl.Replicas = 1
		}
		if out.Repl.Victim == 0 {
			out.Repl.Victim = DeadOnly
		}
	}
	return out
}

// Stats counts every event the ICR cache produces. The simulator folds
// these into a metrics.Report.
type Stats struct {
	Reads       uint64
	ReadHits    uint64
	ReadMisses  uint64
	Writes      uint64
	WriteHits   uint64
	WriteMisses uint64
	Writebacks  uint64

	ReplAttempts        uint64
	ReplSuccesses       uint64
	ReplDoubles         uint64
	ReadHitsWithReplica uint64
	ReplicaServedMisses uint64
	ReplicaEvictions    uint64
	DeadEvictions       uint64

	ErrorsDetected        uint64
	RecoveredByECC        uint64
	RecoveredByReplica    uint64
	RecoveredByDuplicate  uint64 // repaired from the separate r-cache
	RecoveredByL2         uint64
	ReadHitsWithDuplicate uint64 // read hits with an r-cache duplicate resident
	UnrecoverableLoads    uint64
	SilentWritebacks      uint64

	InjectedFlips       uint64
	InjectedIntoInvalid uint64

	// VulnerableLineCycles accumulates line-cycles spent holding dirty
	// data whose only protection was parity (no ECC, no replica) — an
	// injection-free architectural-vulnerability measure.
	VulnerableLineCycles uint64

	// Prefetching (PrefetchIntoDead).
	PrefetchFills  uint64 // next-block fills placed into dead/invalid lines
	PrefetchHits   uint64 // demand accesses that landed on a prefetched line
	PrefetchUnused uint64 // prefetched lines displaced before any use
}

// MissRate returns (read+write misses) / (reads+writes).
func (s *Stats) MissRate() float64 {
	a := s.Reads + s.Writes
	if a == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(a)
}

// ReplAbility returns ReplSuccesses / ReplAttempts.
func (s *Stats) ReplAbility() float64 {
	if s.ReplAttempts == 0 {
		return 0
	}
	return float64(s.ReplSuccesses) / float64(s.ReplAttempts)
}

// LoadsWithReplica returns ReadHitsWithReplica / ReadHits.
func (s *Stats) LoadsWithReplica() float64 {
	if s.ReadHits == 0 {
		return 0
	}
	return float64(s.ReadHitsWithReplica) / float64(s.ReadHits)
}
