package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store"
)

// fakeClaimer is an in-process store.Claimer: the first claimant per key
// holds the claim under a fresh token until the key appears in the
// shared backend (a claim on a stored key answers done, as a real shard
// does) or the holder unclaims it. Renewals with the holder's token are
// granted and counted.
type fakeClaimer struct {
	mu      sync.Mutex
	st      *fakeStore
	owners  map[string]string // key -> holder token
	ttlMS   int64             // TTL handed out with each grant (0 = no renewal)
	retryMS int64             // retry hint handed out with each wait (0 = 1ms)
	issued  int

	granted atomic.Int64
	renewed atomic.Int64
	waits   atomic.Int64
}

func newFakeClaimer(st *fakeStore) *fakeClaimer {
	return &fakeClaimer{st: st, owners: make(map[string]string)}
}

func (c *fakeClaimer) Claim(ctx context.Context, key, token string) (store.ClaimResponse, error) {
	if err := ctx.Err(); err != nil {
		return store.ClaimResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.st.Get(ctx, key); err == nil {
		return store.ClaimResponse{State: store.ClaimDone}, nil
	}
	if holder, held := c.owners[key]; held || token != "" {
		if held && token == holder {
			c.renewed.Add(1)
			return store.ClaimResponse{State: store.ClaimGranted, Token: holder, TTLMS: c.ttlMS}, nil
		}
		c.waits.Add(1)
		return store.ClaimResponse{State: store.ClaimWait, RetryAfterMS: max(c.retryMS, 1)}, nil
	}
	c.issued++
	tok := fmt.Sprintf("%032x", c.issued)
	c.owners[key] = tok
	c.granted.Add(1)
	return store.ClaimResponse{State: store.ClaimGranted, Token: tok, TTLMS: c.ttlMS}, nil
}

func (c *fakeClaimer) Unclaim(ctx context.Context, key, token string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.owners[key] == token {
		delete(c.owners, key)
	}
	return nil
}

// hold marks key as claimed by another fleet member.
func (c *fakeClaimer) hold(key string) {
	c.mu.Lock()
	c.owners[key] = "elsewhere"
	c.mu.Unlock()
}

// TestFleetClaimExactlyOneSimulation: several runners (distinct processes
// in real life) sharing a store backend and a claimer race on one cold
// key; exactly one simulation executes fleet-wide, everyone gets the
// result.
func TestFleetClaimExactlyOneSimulation(t *testing.T) {
	st := newFakeStore()
	claimer := newFakeClaimer(st)
	var calls atomic.Int64
	slow := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the claim long enough to race
		return &metrics.Report{Instructions: r.Instructions, Cycles: 7}, nil
	}
	m, run := baseInputs()

	const fleet = 4
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each "process" has its own runner, memory cache, and flight
			// group; only the shared store and claimer span the fleet.
			r := New(Options{
				Workers:  2,
				Simulate: slow,
				Cache:    NewStoreCache(st, SourceShard),
				Claimer:  claimer,
			})
			rep, err := r.Run(context.Background(), m, run)
			if err == nil && rep.Cycles != 7 {
				err = errors.New("wrong report")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fleet member %d: %v", i, err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d simulations executed fleet-wide, want exactly 1", got)
	}
	if got := claimer.granted.Load(); got != 1 {
		t.Errorf("%d claims granted, want 1", got)
	}
}

// TestClaimReleasedOnFailure: a failed simulation releases the fleet
// claim so the next submission can retry instead of waiting out a TTL.
func TestClaimReleasedOnFailure(t *testing.T) {
	st := newFakeStore()
	claimer := newFakeClaimer(st)
	boom := errors.New("boom")
	var calls atomic.Int64
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := New(Options{Workers: 1, Simulate: fn, Cache: NewStoreCache(st, ""), Claimer: claimer})
	m, run := baseInputs()
	if _, err := r.Run(context.Background(), m, run); !errors.Is(err, boom) {
		t.Fatalf("first run err = %v, want boom", err)
	}
	claimer.mu.Lock()
	held := len(claimer.owners)
	claimer.mu.Unlock()
	if held != 0 {
		t.Fatal("failed simulation left its fleet claim held")
	}
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatalf("retry after released claim: %v", err)
	}
}

// TestClaimWaitFreesSlot: a run whose claim answers "wait" gives its
// worker slot back while it waits out the retry hint, so a one-slot
// runner simulates another key meanwhile.
func TestClaimWaitFreesSlot(t *testing.T) {
	st := newFakeStore()
	claimer := newFakeClaimer(st)
	claimer.retryMS = time.Minute.Milliseconds()
	var running, peak, calls atomic.Int64
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		n := running.Add(1)
		defer running.Add(-1)
		if n > peak.Load() {
			peak.Store(n)
		}
		calls.Add(1)
		return &metrics.Report{Benchmark: r.Benchmark, Instructions: r.Instructions}, nil
	}
	r := New(Options{Workers: 1, Simulate: fn, Cache: NewStoreCache(st, SourceShard), Claimer: claimer})
	m, held := baseInputs()
	free := config.NewRun("gzip", core.BaseP())
	free.Instructions = held.Instructions
	heldKey, _ := KeyFor(m, held)
	claimer.hold(heldKey.String())

	heldCtx, cancelHeld := context.WithCancel(context.Background())
	defer cancelHeld()
	waiting := r.Submit(heldCtx, m, held)
	for deadline := time.Now().Add(5 * time.Second); claimer.waits.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("held key never asked for its claim")
		}
	}
	// Bounded: a waiter that kept its slot through the one-minute retry
	// hint would block the free key past this deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, m, free); err != nil {
		t.Fatalf("free key behind a waiting claim: %v", err)
	}
	select {
	case <-waiting.done:
		t.Fatal("held key settled while another node holds its claim")
	default:
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d simulations, want 1 (the free key)", got)
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak slot occupancy %d, want 1", got)
	}
	cancelHeld()
	if _, err := waiting.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter: err=%v, want context.Canceled", err)
	}
}

// TestClaimWaitDrains: a run waiting on another node's claim is queued
// work, so Drain settles it with ErrDraining.
func TestClaimWaitDrains(t *testing.T) {
	st := newFakeStore()
	claimer := newFakeClaimer(st)
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := New(Options{Workers: 1, Simulate: fn, Cache: NewStoreCache(st, SourceShard), Claimer: claimer})
	m, run := baseInputs()
	key, _ := KeyFor(m, run)
	claimer.hold(key.String())
	p := r.Submit(context.Background(), m, run)
	time.Sleep(10 * time.Millisecond)
	r.Drain()
	if _, err := p.Wait(); !errors.Is(err, ErrDraining) {
		t.Fatalf("waiting run after Drain: err=%v, want ErrDraining", err)
	}
}

// TestClaimRenewedWhileExecuting: the holder renews its claim every
// TTL/3 while the simulation runs, and stops once it returns.
func TestClaimRenewedWhileExecuting(t *testing.T) {
	st := newFakeStore()
	claimer := newFakeClaimer(st)
	claimer.ttlMS = 30
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		time.Sleep(100 * time.Millisecond)
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := New(Options{Workers: 1, Simulate: fn, Cache: NewStoreCache(st, ""), Claimer: claimer})
	m, run := baseInputs()
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	renewed := claimer.renewed.Load()
	if renewed < 2 {
		t.Errorf("%d renewals over a 100ms run with a 30ms TTL, want >= 2", renewed)
	}
	time.Sleep(50 * time.Millisecond)
	if got := claimer.renewed.Load(); got != renewed {
		t.Errorf("renewals went on after the run: %d -> %d", renewed, got)
	}
}
