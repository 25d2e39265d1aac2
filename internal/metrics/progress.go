package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// wallNanos reads the process wall clock in nanoseconds. It is the single
// sanctioned wall-clock seam in the hot packages: throughput reporting is
// the one place real time is wanted, and everything else must stay a pure
// function of (Machine, Run) so results replay byte-identically.
func wallNanos() int64 {
	return time.Now().UnixNano() //icrvet:ignore determinism the one sanctioned wall-clock seam; progress rates are wall-clock by design
}

// Progress tracks the throughput of a batch of simulations. All counters
// are atomic: one Progress may be shared by many worker goroutines and
// read concurrently by a reporter (the CLI progress line). The zero value
// is ready to use; NewProgress additionally stamps the start time so
// rates can be derived.
type Progress struct {
	submitted    atomic.Uint64
	started      atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	memoHits     atomic.Uint64
	diskHits     atomic.Uint64
	shardHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	cacheErrors  atomic.Uint64
	putErrors    atomic.Uint64
	evictions    atomic.Uint64
	instructions atomic.Uint64
	startNanos   atomic.Int64

	// now is the nanosecond clock; nil means the wall clock. Tests
	// inject a fake via NewProgressClock to make rates deterministic.
	now func() int64
}

// NewProgress returns a Progress with the wall clock started.
func NewProgress() *Progress {
	return NewProgressClock(wallNanos)
}

// NewProgressClock returns a Progress driven by the given nanosecond
// clock. The clock must be safe for concurrent use; it is read once at
// construction (the start stamp) and once per Snapshot.
func NewProgressClock(now func() int64) *Progress {
	p := &Progress{now: now}
	p.startNanos.Store(now())
	return p
}

// clock reads the progress clock, falling back to the wall clock for
// zero-value Progress instances.
func (p *Progress) clock() int64 {
	if p.now != nil {
		return p.now()
	}
	return wallNanos()
}

// AddSubmitted records n simulations entering the queue.
func (p *Progress) AddSubmitted(n uint64) { p.submitted.Add(n) }

// AddStarted records n simulations beginning execution.
func (p *Progress) AddStarted(n uint64) { p.started.Add(n) }

// AddCompleted records a finished simulation and the instructions it
// committed (for instruction-throughput rates).
func (p *Progress) AddCompleted(instructions uint64) {
	p.completed.Add(1)
	p.instructions.Add(instructions)
}

// AddFailed records a simulation that returned an error (including
// cancellation).
func (p *Progress) AddFailed(n uint64) { p.failed.Add(n) }

// AddMemoHit records a simulation served from the in-memory cache (or
// coalesced onto an in-flight identical run) instead of being executed.
func (p *Progress) AddMemoHit(n uint64) { p.memoHits.Add(n) }

// AddDiskHit records a simulation served from the persistent disk store
// instead of being executed.
func (p *Progress) AddDiskHit(n uint64) { p.diskHits.Add(n) }

// AddShardHit records a simulation served by a remote store shard
// instead of being executed.
func (p *Progress) AddShardHit(n uint64) { p.shardHits.Add(n) }

// AddCacheMiss records a cacheable simulation that no cache layer held,
// so it had to execute. Uncacheable runs (opaque inputs, caching
// disabled) are not counted.
func (p *Progress) AddCacheMiss(n uint64) { p.cacheMisses.Add(n) }

// AddCacheError records a cache-layer read that failed with a real error
// (sick disk, unreachable shard) rather than a miss. Such runs degrade to
// execution; this counter is how the degradation stays visible.
func (p *Progress) AddCacheError(n uint64) { p.cacheErrors.Add(n) }

// AddPutError records a failed write-back into a cache layer. The run
// still succeeds — the report is in hand — but the result did not persist.
func (p *Progress) AddPutError(n uint64) { p.putErrors.Add(n) }

// AddEviction records n entries displaced from a cache layer (memory or
// disk) to respect its capacity.
func (p *Progress) AddEviction(n uint64) { p.evictions.Add(n) }

// ProgressSnapshot is a consistent-enough point-in-time view of the
// counters (each field is individually atomic).
type ProgressSnapshot struct {
	Submitted    uint64
	Started      uint64
	Completed    uint64
	Failed       uint64
	MemoHits     uint64
	DiskHits     uint64
	ShardHits    uint64
	CacheMisses  uint64
	CacheErrors  uint64
	PutErrors    uint64
	Evictions    uint64
	Instructions uint64
	Elapsed      time.Duration
}

// Snapshot returns the current counter values and elapsed time.
func (p *Progress) Snapshot() ProgressSnapshot {
	var elapsed time.Duration
	if ns := p.startNanos.Load(); ns != 0 {
		elapsed = time.Duration(p.clock() - ns)
	}
	return ProgressSnapshot{
		Submitted:    p.submitted.Load(),
		Started:      p.started.Load(),
		Completed:    p.completed.Load(),
		Failed:       p.failed.Load(),
		MemoHits:     p.memoHits.Load(),
		DiskHits:     p.diskHits.Load(),
		ShardHits:    p.shardHits.Load(),
		CacheMisses:  p.cacheMisses.Load(),
		CacheErrors:  p.cacheErrors.Load(),
		PutErrors:    p.putErrors.Load(),
		Evictions:    p.evictions.Load(),
		Instructions: p.instructions.Load(),
		Elapsed:      elapsed,
	}
}

// Settled returns completed + failed + cache hits (memory, disk, shard):
// the number of submitted simulations that have reached a final state.
func (s ProgressSnapshot) Settled() uint64 {
	return s.Completed + s.Failed + s.MemoHits + s.DiskHits + s.ShardHits
}

// CacheHits returns the total runs served without executing a simulation,
// from any cache layer.
func (s ProgressSnapshot) CacheHits() uint64 { return s.MemoHits + s.DiskHits + s.ShardHits }

// CacheHitRate returns hits over (hits + misses) for cacheable runs, in
// [0, 1]; 0 when nothing cacheable has settled.
func (s ProgressSnapshot) CacheHitRate() float64 {
	total := s.CacheHits() + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits()) / float64(total)
}

// SimsPerSec returns the executed-simulation rate over the elapsed time.
func (s ProgressSnapshot) SimsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Completed) / s.Elapsed.Seconds()
}

// InstructionsPerSec returns the committed-instruction rate.
func (s ProgressSnapshot) InstructionsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Instructions) / s.Elapsed.Seconds()
}

// String renders a one-line progress summary suitable for a status line.
func (s ProgressSnapshot) String() string {
	return fmt.Sprintf("%d/%d sims (%d memoized, %d disk, %d evicted, %d failed, %.0f sims/s, %.2fM inst/s)",
		s.Settled(), s.Submitted, s.MemoHits, s.DiskHits, s.Evictions, s.Failed,
		s.SimsPerSec(), s.InstructionsPerSec()/1e6)
}
