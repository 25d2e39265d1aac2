// Package runner is the parallel experiment engine: it fans independent
// sim.Simulate calls across a bounded pool of workers while keeping every
// result observably identical to the serial path.
//
// Guarantees:
//
//   - Determinism: each simulation is a pure function of its
//     (config.Machine, config.Run) inputs — every run builds its own RNGs,
//     caches, and meters — so results do not depend on goroutine
//     scheduling, and batch results are returned in submission order.
//     Output derived from a batch is byte-for-byte identical at any worker
//     count.
//   - Cancellation: Submit honours context cancellation and per-run
//     timeouts. In-flight simulations abort promptly (the core polls a
//     stop flag once per simulated cycle), queued ones never start, and
//     batch collection reports whatever completed (partial results).
//   - Caching: results are content-addressed by a stable hash of the
//     full input (see KeyFor) and served through a pluggable Cache stack —
//     by default an in-memory LRU, optionally layered over a persistent
//     disk store (internal/store) so repeated sweep points survive process
//     restarts. A singleflight layer coalesces concurrent identical
//     submissions either way. Cached reports are copied on return; callers
//     can never corrupt each other.
//   - Worker slots: a run takes one of the pool's slots only to execute.
//     Joining an identical in-flight run and looking the key up in the
//     cache stack happen before the slot, so hits never queue behind
//     simulations, and a fleet claim that answers "wait" gives the slot
//     back while it waits (see Options.Claimer).
//   - Draining: Drain moves the runner into shutdown mode — runs already
//     holding a worker slot finish (and persist), runs still queued or
//     waiting on a fleet claim settle immediately with ErrDraining. The
//     serving layer uses this for graceful SIGTERM handling.
//   - Observability: progress, throughput, and per-tier cache counters are
//     exposed via internal/metrics.Progress for CLI progress lines and the
//     daemon's expvar page.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// ErrDraining is the settlement error for runs that were still queued
// (waiting for a worker slot or on a fleet claim) when Drain was called,
// and for runs submitted after it.
var ErrDraining = errors.New("runner draining: queued run rejected")

// SimulateFunc executes one simulation. The default is
// sim.SimulateContext; tests substitute stubs.
type SimulateFunc func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error)

// claimRetry is the wait before re-asking for a fleet claim when the
// shard's "wait" answer carries no retry hint.
const claimRetry = 25 * time.Millisecond

// Options configure a Runner.
type Options struct {
	// Workers bounds the number of concurrently executing simulations.
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// CacheSize is the in-memory cache capacity in settled reports: 0
	// means DefaultCacheSize, negative disables caching (and singleflight
	// coalescing) entirely.
	CacheSize int

	// Cache overrides the cache stack built from CacheSize. Use
	// NewTiered(NewMemoryCache(...), NewStoreCache(...)) to layer the
	// in-memory cache over a persistent disk store. When Cache is non-nil
	// CacheSize is ignored (except that a negative CacheSize still
	// disables caching outright).
	Cache Cache

	// Timeout, when > 0, bounds each individual simulation.
	Timeout time.Duration

	// Progress, when non-nil, receives submission/completion/throughput
	// counts. Nil allocates a private one (readable via Progress()).
	Progress *metrics.Progress

	// Simulate substitutes the simulation function (tests). Nil means
	// sim.SimulateContext.
	Simulate SimulateFunc

	// Claimer, when non-nil, extends the in-process singleflight across a
	// fleet: holding a worker slot for a cache miss, the flight owner asks
	// the Claimer (the sharded store) who should simulate the key. A cold
	// popular key then triggers exactly one simulation fleet-wide, not one
	// per front end. A "wait" answer hands the slot back: the run waits
	// the retry hint outside it, looks the key up again and rejoins the
	// back of the slot queue, so nodes given the same sweep each take the
	// keys nobody else holds. A granted claim is renewed every TTL/3 while
	// the run executes. Nil keeps coalescing process-local.
	Claimer store.Claimer
}

// Runner executes simulations on a bounded worker pool with memoization.
// It is safe for concurrent use and needs no shutdown: workers are
// goroutines that exist only while work is in flight.
type Runner struct {
	slots     chan struct{}
	cache     Cache
	flight    *flightGroup
	claimer   store.Claimer
	timeout   time.Duration
	prog      *metrics.Progress
	simFn     SimulateFunc
	drain     chan struct{}
	drainOnce sync.Once
}

// New returns a Runner with the given options.
func New(o Options) *Runner {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prog := o.Progress
	if prog == nil {
		prog = metrics.NewProgress()
	}
	var cache Cache
	if o.CacheSize >= 0 {
		if o.Cache != nil {
			cache = o.Cache
		} else {
			cache = NewMemoryCache(o.CacheSize, prog)
		}
	}
	var flight *flightGroup
	if cache != nil {
		flight = newFlightGroup()
	}
	simFn := o.Simulate
	if simFn == nil {
		simFn = sim.SimulateContext
	}
	var claimer store.Claimer
	if cache != nil {
		claimer = o.Claimer
	}
	return &Runner{
		slots:   make(chan struct{}, workers),
		cache:   cache,
		flight:  flight,
		claimer: claimer,
		timeout: o.Timeout,
		prog:    prog,
		simFn:   simFn,
		drain:   make(chan struct{}),
	}
}

// Drain moves the runner into shutdown mode, once: submissions that have
// not yet acquired a worker slot — queued now, waiting on a fleet claim,
// or submitted later — settle immediately with ErrDraining, while runs
// already executing are unaffected and finish normally (persisting their
// results through the cache stack). Waiters coalesced onto an executing
// run still receive its result.
func (r *Runner) Drain() {
	r.drainOnce.Do(func() { close(r.drain) })
}

// Draining reports whether Drain has been called.
func (r *Runner) Draining() bool {
	select {
	case <-r.drain:
		return true
	default:
		return false
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return cap(r.slots) }

// Progress returns the runner's counters.
func (r *Runner) Progress() *metrics.Progress { return r.prog }

// Pending is a handle to a submitted simulation.
type Pending struct {
	done chan struct{}
	rep  *metrics.Report
	err  error
	src  string
}

// Wait blocks until the simulation settles and returns its result. It is
// safe to call from multiple goroutines and more than once.
func (p *Pending) Wait() (*metrics.Report, error) {
	<-p.done
	return p.rep, p.err
}

// Source reports where a successful result came from: SourceSimulated,
// SourceMemory, SourceDisk, or SourceShard. It blocks until the
// simulation settles and returns "" for failed runs.
func (p *Pending) Source() string {
	<-p.done
	return p.src
}

// Submit enqueues one simulation and returns immediately. A cache hit
// settles without a worker slot; a miss starts as soon as a slot frees
// up, and a context cancelled before then settles the Pending without
// the simulation ever starting.
func (r *Runner) Submit(ctx context.Context, m config.Machine, run config.Run) *Pending {
	if ctx == nil {
		ctx = context.Background() //icrvet:ignore ctxflow nil-ctx compatibility seam: Submit's documented default for non-cancellable callers
	}
	p := &Pending{done: make(chan struct{})}
	r.prog.AddSubmitted(1)
	go func() {
		defer close(p.done)
		rep, src, err := r.simulate(ctx, m, run)
		if err != nil {
			p.err = fmt.Errorf("runner: %s: %w", run.Name(), err)
			r.prog.AddFailed(1)
			return
		}
		p.rep, p.src = rep, src
	}()
	return p
}

// Run submits one simulation and waits for it.
func (r *Runner) Run(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, error) {
	return r.Submit(ctx, m, run).Wait()
}

// RunBatch submits every run and waits for all of them. Results are in
// submission order regardless of completion order. On failure the error
// of the lowest-index failing run is returned (a deterministic choice)
// and the result slice still carries every run that did complete —
// partial results under cancellation. RunBatch returns only after every
// submitted run has settled, so no work leaks past it.
func (r *Runner) RunBatch(ctx context.Context, m config.Machine, runs []config.Run) ([]*metrics.Report, error) {
	pendings := make([]*Pending, len(runs))
	for i, run := range runs {
		pendings[i] = r.Submit(ctx, m, run)
	}
	return Collect(pendings)
}

// Collect waits for every pending and returns results in order, with the
// lowest-index error (if any). Entries that failed are nil.
func Collect(pendings []*Pending) ([]*metrics.Report, error) {
	reports := make([]*metrics.Report, len(pendings))
	var firstErr error
	for i, p := range pendings {
		rep, err := p.Wait()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		reports[i] = rep
	}
	return reports, firstErr
}

// simulate executes one run through the cache stack (when eligible),
// reporting where the result came from.
func (r *Runner) simulate(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, string, error) {
	// A run submitted after Drain, or under an already-cancelled context,
	// settles without a cache lookup or a slot.
	if err := r.admissible(ctx); err != nil {
		return nil, "", err
	}
	if r.cache == nil {
		return r.execSlot(ctx, m, run)
	}
	key, ok := KeyFor(m, run)
	if !ok {
		// Opaque inputs (function hooks, unknown hint policies) cannot be
		// content-addressed; run uncached.
		return r.execSlot(ctx, m, run)
	}
	for {
		e, owner := r.flight.claim(key)
		if owner {
			rep, tier, err := r.fill(ctx, key, m, run)
			r.flight.settle(key, e, rep, err)
			if err != nil {
				return nil, "", err
			}
			// The cache keeps its own copy; hand the caller another so
			// later hits never observe caller mutations.
			return copyReport(rep), tier, nil
		}
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, "", ctx.Err()
		}
		if e.err == nil {
			// Coalesced onto the owner's in-memory result.
			r.prog.AddMemoHit(1)
			return copyReport(e.rep), SourceMemory, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		// The owner failed — possibly its own caller's cancellation, which
		// must not poison this caller. The entry was dropped at settle;
		// loop to claim ownership and retry.
	}
}

// fill produces the report for a key this process's flight owns: a
// cache lookup, then — on a miss — a worker slot, the fleet claim, and
// execution with write-back.
func (r *Runner) fill(ctx context.Context, key Key, m config.Machine, run config.Run) (*metrics.Report, string, error) {
	rep, tier, err := r.cacheGet(ctx, key)
	if err == nil {
		return rep, tier, nil
	}
	if !errors.Is(err, store.ErrMiss) {
		// A sick layer (disk I/O trouble, dead shard) degrades to
		// execution — visible in the counter, fatal to nothing.
		r.prog.AddCacheError(1)
	}
	r.prog.AddCacheMiss(1)
	for {
		if err := r.acquire(ctx); err != nil {
			return nil, "", err
		}
		// Fleet claim: only the flight owner gets here, so one process
		// holds at most one claim request per key at a time. Without a
		// Claimer the zero answer falls through to execution.
		var c store.ClaimResponse
		if r.claimer != nil {
			if c, err = r.claimer.Claim(ctx, key.String(), ""); err != nil {
				r.release()
				return nil, "", err
			}
		}
		switch c.State {
		case store.ClaimWait:
			// Another node simulates it. Free the slot for a key nobody
			// holds, wait outside it, then look again and requeue.
			r.release()
			if err := r.await(ctx, c.RetryAfterMS); err != nil {
				return nil, "", err
			}
			if rep, tier, err := r.cacheGet(ctx, key); err == nil {
				return rep, tier, nil
			}
			continue
		case store.ClaimDone:
			// Another node simulated it; its result should now be one Get
			// away.
			if rep, tier, err := r.cacheGet(ctx, key); err == nil {
				r.release()
				return rep, tier, nil
			}
			// Not visible (replica lag, shard loss): simulate locally —
			// duplicate work, never wrong results.
			c = store.ClaimResponse{}
		}
		stop := r.renew(ctx, key.String(), c)
		rep, err := r.exec(ctx, m, run)
		stop()
		r.release()
		if err == nil {
			if err := r.cache.Put(ctx, key, rep); err != nil {
				r.prog.AddPutError(1)
				// The Put that would have cleared the fleet claim never
				// landed; free the waiters explicitly.
				r.unclaim(ctx, key.String(), c)
			}
			return rep, SourceSimulated, nil
		}
		r.unclaim(ctx, key.String(), c)
		return nil, "", err
	}
}

// renew keeps a granted claim alive while its run executes: every TTL/3
// it renews with the holder token, stopping at the first answer that is
// not a grant — the claim lapsed and may now be another node's. The run
// itself goes on either way: its result is the same bytes whoever Puts
// them. The returned stop ends renewal and waits for it to finish.
func (r *Runner) renew(ctx context.Context, key string, c store.ClaimResponse) (stop func()) {
	if c.Token == "" || c.TTLMS <= 0 {
		return func() {}
	}
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Duration(c.TTLMS) * time.Millisecond / 3)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return
			}
			got, err := r.claimer.Claim(ctx, key, c.Token)
			if err != nil || got.State != store.ClaimGranted {
				return
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// unclaim releases a granted claim whose result will not land.
func (r *Runner) unclaim(ctx context.Context, key string, c store.ClaimResponse) {
	if c.Token == "" {
		return
	}
	r.claimer.Unclaim(ctx, key, c.Token) //icrvet:ignore droppederr best-effort release; waiters fall back to the claim TTL
}

// admissible reports why a run must not start now: a cancelled context
// or a draining runner.
func (r *Runner) admissible(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.Draining() {
		return ErrDraining
	}
	return nil
}

// acquire takes a worker slot, or fails with the context's error or
// ErrDraining.
func (r *Runner) acquire(ctx context.Context) error {
	// Explicit pre-check: when the context is already cancelled (or the
	// runner already draining) the select below could still win the slot
	// branch by chance, and such a run must never start.
	if err := r.admissible(ctx); err != nil {
		return err
	}
	select {
	case r.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.drain:
		return ErrDraining
	}
}

// release frees a worker slot taken by acquire.
func (r *Runner) release() { <-r.slots }

// await sleeps out a claim's retry hint, or fails with the context's
// error or ErrDraining.
func (r *Runner) await(ctx context.Context, retryMS int64) error {
	d := time.Duration(retryMS) * time.Millisecond
	if d <= 0 {
		d = claimRetry
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.drain:
		return ErrDraining
	}
}

// cacheGet reads the cache stack and accounts the hit to its tier.
func (r *Runner) cacheGet(ctx context.Context, key Key) (*metrics.Report, string, error) {
	rep, tier, err := r.cache.Get(ctx, key)
	if err != nil {
		return nil, "", err
	}
	switch tier {
	case SourceDisk:
		r.prog.AddDiskHit(1)
	case SourceShard:
		r.prog.AddShardHit(1)
	default:
		r.prog.AddMemoHit(1)
	}
	return rep, tier, nil
}

// execSlot executes an uncached run on a worker slot.
func (r *Runner) execSlot(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, string, error) {
	if err := r.acquire(ctx); err != nil {
		return nil, "", err
	}
	defer r.release()
	rep, err := r.exec(ctx, m, run)
	if err != nil {
		return nil, "", err
	}
	return rep, SourceSimulated, nil
}

// exec runs one simulation with the per-run timeout applied. The caller
// holds a worker slot.
func (r *Runner) exec(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, error) {
	if r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	r.prog.AddStarted(1)
	rep, err := r.simFn(ctx, m, run)
	if err != nil {
		return nil, err
	}
	r.prog.AddCompleted(rep.Instructions)
	return rep, nil
}
