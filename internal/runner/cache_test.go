package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/store"
)

// fakeStore is an in-memory store.Backend standing in for internal/store.
type fakeStore struct {
	mu      sync.Mutex
	reports map[string]*metrics.Report
	getErr  error
	putErr  error
	gets    int
	puts    int
}

func newFakeStore() *fakeStore {
	return &fakeStore{reports: make(map[string]*metrics.Report)}
}

func (s *fakeStore) Get(ctx context.Context, key string) (*metrics.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.getErr != nil {
		return nil, s.getErr
	}
	rep, ok := s.reports[key]
	if !ok {
		return nil, store.ErrMiss
	}
	cp := *rep
	return &cp, nil
}

func (s *fakeStore) Put(ctx context.Context, key string, rep *metrics.Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.putErr != nil {
		return s.putErr
	}
	cp := *rep
	s.reports[key] = &cp
	return nil
}

func (s *fakeStore) Stats() store.Stats { return store.Stats{} }

func (s *fakeStore) Drain() {}

func (s *fakeStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reports)
}

// tieredOptions builds the memory-over-disk stack icrbench/icrd use.
func tieredOptions(fn SimulateFunc, st *fakeStore) Options {
	return Options{
		Workers:  4,
		Simulate: fn,
		Cache:    NewTiered(NewMemoryCache(0, nil), NewStoreCache(st, "")),
	}
}

// TestStoreCachePersistsAndServes: a simulated run is written through to
// the disk layer, and a fresh runner (cold memory cache) over the same
// store serves it as a disk hit without executing.
func TestStoreCachePersistsAndServes(t *testing.T) {
	st := newFakeStore()
	fn, calls := countingSim()
	m, run := baseInputs()

	r1 := New(tieredOptions(fn, st))
	p := r1.Submit(context.Background(), m, run)
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if src := p.Source(); src != SourceSimulated {
		t.Errorf("first run Source = %q, want %q", src, SourceSimulated)
	}
	if st.len() != 1 {
		t.Fatalf("store holds %d reports after write-through, want 1", st.len())
	}

	// Fresh runner: memory cache is cold, the disk layer is warm.
	r2 := New(tieredOptions(fn, st))
	p2 := r2.Submit(context.Background(), m, run)
	rep, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != uint64(run.Seed)*1000+run.Instructions {
		t.Errorf("disk hit returned wrong report: %+v", rep)
	}
	if src := p2.Source(); src != SourceDisk {
		t.Errorf("restart run Source = %q, want %q", src, SourceDisk)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("disk-cached run executed %d times, want 1", got)
	}
	snap := r2.Progress().Snapshot()
	if snap.DiskHits != 1 || snap.MemoHits != 0 {
		t.Errorf("snapshot = %+v, want 1 disk hit, 0 memo hits", snap)
	}

	// The disk hit was promoted into memory: a third run hits memory.
	p3 := r2.Submit(context.Background(), m, run)
	if _, err := p3.Wait(); err != nil {
		t.Fatal(err)
	}
	if src := p3.Source(); src != SourceMemory {
		t.Errorf("post-promotion Source = %q, want %q", src, SourceMemory)
	}
	if calls.Load() != 1 {
		t.Error("promoted entry re-executed")
	}
}

// TestStoreCachePutFailureIsNotFatal: a failing persist is counted but
// the run still returns its report.
func TestStoreCachePutFailureIsNotFatal(t *testing.T) {
	st := newFakeStore()
	st.putErr = errors.New("disk full")
	sc := NewStoreCache(st, "")
	fn, _ := countingSim()
	r := New(Options{
		Workers:  2,
		Simulate: fn,
		Cache:    NewTiered(NewMemoryCache(0, nil), sc),
	})
	m, run := baseInputs()
	rep, err := r.Run(context.Background(), m, run)
	if err != nil || rep == nil {
		t.Fatalf("run failed because persist failed: rep=%v err=%v", rep, err)
	}
	if got := sc.PutErrors(); got != 1 {
		t.Errorf("PutErrors = %d, want 1", got)
	}
}

// TestCacheMissCounter: only cacheable runs count as misses.
func TestCacheMissCounter(t *testing.T) {
	fn, _ := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	mOpaque, runOpaque := baseInputs()
	mOpaque.CPU.EachCycle = func(uint64) uint64 { return 0 }
	if _, err := r.Run(context.Background(), mOpaque, runOpaque); err != nil {
		t.Fatal(err)
	}
	if snap := r.Progress().Snapshot(); snap.CacheMisses != 1 {
		t.Errorf("CacheMisses = %d, want 1 (opaque run must not count)", snap.CacheMisses)
	}
}

// TestDrainRejectsQueuedKeepsRunning: Drain lets the executing run finish
// (and persist) while the queued run settles with ErrDraining, and later
// submissions are rejected outright.
func TestDrainRejectsQueuedKeepsRunning(t *testing.T) {
	st := newFakeStore()
	started := make(chan struct{})
	gate := make(chan struct{})
	var calls atomic.Int64
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-gate
		}
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := New(Options{
		Workers:  1,
		Simulate: fn,
		Cache:    NewTiered(NewMemoryCache(0, nil), NewStoreCache(st, "")),
	})
	m, run := baseInputs()
	m2, run2 := baseInputs()
	run2.Seed++

	running := r.Submit(context.Background(), m, run)
	<-started
	queued := r.Submit(context.Background(), m2, run2)

	r.Drain()
	if !r.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := queued.Wait(); !errors.Is(err, ErrDraining) {
		t.Fatalf("queued run err = %v, want ErrDraining", err)
	}

	close(gate)
	rep, err := running.Wait()
	if err != nil || rep == nil {
		t.Fatalf("executing run did not finish cleanly: rep=%v err=%v", rep, err)
	}
	if st.len() != 1 {
		t.Errorf("in-flight run's result not persisted during drain: store has %d entries", st.len())
	}

	late := r.Submit(context.Background(), m2, run2)
	if _, err := late.Wait(); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submission err = %v, want ErrDraining", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d simulations executed, want 1 (queued and late runs must not start)", got)
	}
}

// TestPendingSourceTiers: Source reports simulated, then memory on the
// rerun, and "" for failures.
func TestPendingSourceTiers(t *testing.T) {
	fn, _ := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()

	p1 := r.Submit(context.Background(), m, run)
	if _, err := p1.Wait(); err != nil {
		t.Fatal(err)
	}
	if src := p1.Source(); src != SourceSimulated {
		t.Errorf("first Source = %q, want %q", src, SourceSimulated)
	}
	p2 := r.Submit(context.Background(), m, run)
	if _, err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if src := p2.Source(); src != SourceMemory {
		t.Errorf("second Source = %q, want %q", src, SourceMemory)
	}

	boom := errors.New("boom")
	rf := newTestRunner(t, Options{Simulate: func(context.Context, config.Machine, config.Run) (*metrics.Report, error) {
		return nil, boom
	}})
	pf := rf.Submit(context.Background(), m, run)
	if _, err := pf.Wait(); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if src := pf.Source(); src != "" {
		t.Errorf("failed Source = %q, want empty", src)
	}
}

// TestTieredSkipsNilLayers: composing with nil layers (e.g. no -store
// flag) must behave like the remaining layers alone.
func TestTieredSkipsNilLayers(t *testing.T) {
	ctx := context.Background()
	tiered := NewTiered(nil, NewMemoryCache(4, nil), nil)
	key := Key{1, 2, 3}
	if err := tiered.Put(ctx, key, &metrics.Report{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	rep, tier, err := tiered.Get(ctx, key)
	if err != nil || rep.Cycles != 9 || tier != SourceMemory {
		t.Errorf("Get = (%+v, %q, %v), want memory hit", rep, tier, err)
	}
	if _, _, err := tiered.Get(ctx, Key{4}); !errors.Is(err, store.ErrMiss) {
		t.Errorf("absent key error = %v, want store.ErrMiss", err)
	}
}

// TestTieredSickLayerDegrades: a layer failing with a real error must not
// hide a hit in a lower layer, and an all-miss lookup surfaces that error
// instead of a plain miss.
func TestTieredSickLayerDegrades(t *testing.T) {
	ctx := context.Background()
	sick := newFakeStore()
	sick.getErr = errors.New("input/output error")
	warm := newFakeStore()
	key := Key{1, 2, 3}
	if err := warm.Put(ctx, key.String(), &metrics.Report{Cycles: 9}); err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(NewStoreCache(sick, ""), NewStoreCache(warm, SourceShard))
	rep, tier, err := tiered.Get(ctx, key)
	if err != nil || rep.Cycles != 9 || tier != SourceShard {
		t.Errorf("Get = (%+v, %q, %v), want shard hit past the sick layer", rep, tier, err)
	}
	if _, _, err := tiered.Get(ctx, Key{4}); err == nil || errors.Is(err, store.ErrMiss) {
		t.Errorf("all-miss with a sick layer = %v, want its error surfaced", err)
	}
}

// TestRunnerCacheErrorDegradesToExecution: a sick cache stack must not
// fail runs — the runner executes and counts the degradation.
func TestRunnerCacheErrorDegradesToExecution(t *testing.T) {
	st := newFakeStore()
	st.getErr = errors.New("input/output error")
	fn, calls := countingSim()
	r := New(Options{Workers: 2, Simulate: fn, Cache: NewStoreCache(st, "")})
	m, run := baseInputs()
	rep, err := r.Run(context.Background(), m, run)
	if err != nil || rep == nil {
		t.Fatalf("run failed because the cache is sick: rep=%v err=%v", rep, err)
	}
	if calls.Load() != 1 {
		t.Errorf("executions = %d, want 1", calls.Load())
	}
	if snap := r.Progress().Snapshot(); snap.CacheErrors != 1 {
		t.Errorf("CacheErrors = %d, want 1", snap.CacheErrors)
	}
}
