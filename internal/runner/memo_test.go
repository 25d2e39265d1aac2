package runner

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
)

// countingSim returns a deterministic stub SimulateFunc and the counter of
// how many times it actually executed (memo hits bypass it).
func countingSim() (SimulateFunc, *atomic.Int64) {
	var calls atomic.Int64
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		calls.Add(1)
		rep := &metrics.Report{
			Benchmark:    r.Benchmark,
			Scheme:       r.Scheme.Name(),
			Instructions: r.Instructions,
			Cycles:       uint64(r.Seed)*1000 + r.Instructions,
		}
		return rep, nil
	}
	return fn, &calls
}

func newTestRunner(t *testing.T, o Options) *Runner {
	t.Helper()
	if o.Workers == 0 {
		o.Workers = 4
	}
	return New(o)
}

func TestMemoHitOnIdenticalInputs(t *testing.T) {
	fn, calls := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()

	for i := 0; i < 3; i++ {
		rep, err := r.Run(context.Background(), m, run)
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil || rep.Cycles != uint64(run.Seed)*1000+run.Instructions {
			t.Fatalf("iteration %d: wrong report %+v", i, rep)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("identical runs executed %d times, want 1", got)
	}
	if snap := r.Progress().Snapshot(); snap.MemoHits != 2 {
		t.Errorf("MemoHits = %d, want 2", snap.MemoHits)
	}
}

// TestMemoMissOnFieldChange mutates one field at a time and expects a fresh
// execution for each — the cache must never serve a report for a different
// configuration.
func TestMemoMissOnFieldChange(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*config.Machine, *config.Run)
	}{
		{"Instructions", func(m *config.Machine, r *config.Run) { r.Instructions++ }},
		{"Seed", func(m *config.Machine, r *config.Run) { r.Seed++ }},
		{"Benchmark", func(m *config.Machine, r *config.Run) { r.Benchmark = "mcf" }},
		{"Scheme", func(m *config.Machine, r *config.Run) { r.Scheme = core.BaseECC(false) }},
		{"Repl.DecayWindow", func(m *config.Machine, r *config.Run) { r.Repl.DecayWindow = 1000 }},
		{"Repl.Distances", func(m *config.Machine, r *config.Run) { r.Repl.Distances = []int{8} }},
		{"WriteThrough", func(m *config.Machine, r *config.Run) { r.WriteThrough = true }},
		{"Fault.Prob", func(m *config.Machine, r *config.Run) { r.Fault.Prob = 1e-3 }},
		{"Energy.ParityFrac", func(m *config.Machine, r *config.Run) { r.Energy.ParityFrac += 0.01 }},
		{"Hints", func(m *config.Machine, r *config.Run) { r.Hints = []core.AddrRange{{End: 64}} }},
		{"DupCacheKB", func(m *config.Machine, r *config.Run) { r.DupCacheKB = 2 }},
		{"ScrubInterval", func(m *config.Machine, r *config.Run) { r.ScrubInterval = 100 }},
		{"Prefetch", func(m *config.Machine, r *config.Run) { r.Prefetch = true }},
		{"Machine.DL1Size", func(m *config.Machine, r *config.Run) { m.DL1Size *= 2 }},
		{"Machine.CPU.LSQSize", func(m *config.Machine, r *config.Run) { m.CPU.LSQSize++ }},
	}

	fn, calls := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	baseM, baseRun := baseInputs()
	if _, err := r.Run(context.Background(), baseM, baseRun); err != nil {
		t.Fatal(err)
	}

	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			before := calls.Load()
			m, run := baseInputs()
			tc.mut(&m, &run)
			if _, err := r.Run(context.Background(), m, run); err != nil {
				t.Fatal(err)
			}
			if after := calls.Load(); after != before+1 {
				t.Errorf("mutated run executed %d new sims, want 1 (stale cache hit)", after-before)
			}
			// The unmutated configuration must still be cached.
			if _, err := r.Run(context.Background(), baseM, baseRun); err != nil {
				t.Fatal(err)
			}
			if final := calls.Load(); final != before+1 {
				t.Error("base configuration re-executed; cache lost the entry")
			}
		})
	}
}

// TestMemoCopyOnReturn: a caller scribbling on a returned report must never
// corrupt what later cache hits observe.
func TestMemoCopyOnReturn(t *testing.T) {
	fn, _ := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()

	first, err := r.Run(context.Background(), m, run)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := first.Cycles
	first.Cycles = 0xDEAD
	first.Benchmark = "corrupted"

	second, err := r.Run(context.Background(), m, run)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cycles != wantCycles || second.Benchmark != run.Benchmark {
		t.Errorf("cache hit observed caller mutation: %+v", second)
	}
	if first == second {
		t.Error("cache returned the same pointer twice")
	}

	second.Instructions = 0
	third, err := r.Run(context.Background(), m, run)
	if err != nil {
		t.Fatal(err)
	}
	if third.Instructions != run.Instructions {
		t.Error("second mutation leaked into the cache")
	}
}

// TestReportIsFlatValueStruct guards the assumption copyReport rests on:
// metrics.Report is a flat value struct apart from the reference-typed
// fields copyReport explicitly deep-copies (Sampling, Adaptive, and
// Adaptive's Trajectory slice). Any other reference-typed field (pointer,
// slice, map) would alias cached state and must come with its own
// deep-copy step here and in copyReport.
func TestReportIsFlatValueStruct(t *testing.T) {
	deepCopied := map[string]bool{
		"Report.Sampling":              true,
		"Report.Adaptive":              true,
		"Report.Adaptive.*.Trajectory": true,
		"Report.TwoTier":               true,
	}
	var check func(tp reflect.Type, path string)
	check = func(tp reflect.Type, path string) {
		switch tp.Kind() {
		case reflect.Ptr:
			if deepCopied[path] {
				check(tp.Elem(), path+".*")
				return
			}
			t.Errorf("%s is reference-typed (%s): copyReport's struct copy is no longer a deep copy", path, tp.Kind())
		case reflect.Slice:
			if deepCopied[path] {
				check(tp.Elem(), path+"[]")
				return
			}
			t.Errorf("%s is reference-typed (%s): copyReport's struct copy is no longer a deep copy", path, tp.Kind())
		case reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is reference-typed (%s): copyReport's struct copy is no longer a deep copy", path, tp.Kind())
		case reflect.Struct:
			for i := 0; i < tp.NumField(); i++ {
				f := tp.Field(i)
				check(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			check(tp.Elem(), path+"[]")
		}
	}
	check(reflect.TypeOf(metrics.Report{}), "Report")
}

// TestCopyReportDeepCopiesSampling pins the explicit deep-copy branch: a
// cached report's sampling block must not be aliased by the copies handed
// to callers.
func TestCopyReportDeepCopiesSampling(t *testing.T) {
	orig := &metrics.Report{Sampling: &metrics.SamplingStats{Windows: 10, IPCMean: 1.5}}
	cp := copyReport(orig)
	if cp.Sampling == orig.Sampling {
		t.Fatal("copyReport aliased the Sampling block")
	}
	cp.Sampling.IPCMean = 9
	if orig.Sampling.IPCMean != 1.5 {
		t.Error("mutating the copy's Sampling reached the cached report")
	}
}

// TestCopyReportDeepCopiesAdaptive pins the same invariant for the
// adaptive block, including its trajectory slice.
func TestCopyReportDeepCopiesAdaptive(t *testing.T) {
	orig := &metrics.Report{Adaptive: &metrics.AdaptiveStats{
		Epochs:     4,
		Trajectory: []metrics.AdaptiveMove{{Epoch: 1, Level: 2}},
	}}
	cp := copyReport(orig)
	if cp.Adaptive == orig.Adaptive {
		t.Fatal("copyReport aliased the Adaptive block")
	}
	cp.Adaptive.Epochs = 99
	cp.Adaptive.Trajectory[0].Level = 0
	if orig.Adaptive.Epochs != 4 || orig.Adaptive.Trajectory[0].Level != 2 {
		t.Error("mutating the copy's Adaptive reached the cached report")
	}
}

// TestCopyReportDeepCopiesTwoTier pins the same invariant for the
// two-tier block.
func TestCopyReportDeepCopiesTwoTier(t *testing.T) {
	orig := &metrics.Report{TwoTier: &metrics.TwoTierStats{Tier: "ICR-P+x", ReplAttempts: 7}}
	cp := copyReport(orig)
	if cp.TwoTier == orig.TwoTier {
		t.Fatal("copyReport aliased the TwoTier block")
	}
	cp.TwoTier.ReplAttempts = 99
	if orig.TwoTier.ReplAttempts != 7 {
		t.Error("mutating the copy's TwoTier reached the cached report")
	}
}

// TestMemoSingleflight: concurrent submissions of the same key execute the
// simulation exactly once; everyone else waits for the owner.
func TestMemoSingleflight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		calls.Add(1)
		<-gate // hold the owner until all duplicates are submitted
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := newTestRunner(t, Options{Workers: 8, Simulate: fn})
	m, run := baseInputs()

	const dup = 8
	pendings := make([]*Pending, dup)
	for i := range pendings {
		pendings[i] = r.Submit(context.Background(), m, run)
	}
	close(gate)
	reports, err := Collect(pendings)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("%d duplicate submissions executed %d times, want 1", dup, got)
	}
	for i, rep := range reports {
		if rep == nil || rep.Instructions != run.Instructions {
			t.Fatalf("report %d: %+v", i, rep)
		}
		for j := i + 1; j < dup; j++ {
			if rep == reports[j] {
				t.Fatal("two waiters received the same report pointer")
			}
		}
	}
	if snap := r.Progress().Snapshot(); snap.MemoHits != dup-1 {
		t.Errorf("MemoHits = %d, want %d", snap.MemoHits, dup-1)
	}
}

// TestMemoErrorsNotCached: a failed owner must not poison the key — the
// next submission retries, and a success after the failure is cached.
func TestMemoErrorsNotCached(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("injected failure")
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		if calls.Add(1) == 1 {
			return nil, boom
		}
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()

	if _, err := r.Run(context.Background(), m, run); !errors.Is(err, boom) {
		t.Fatalf("first run: err = %v, want injected failure", err)
	}
	if rep, err := r.Run(context.Background(), m, run); err != nil || rep == nil {
		t.Fatalf("retry after failure: rep=%v err=%v", rep, err)
	}
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("executed %d times, want 2 (fail, succeed, then cache hit)", got)
	}
}

// TestMemoErrorRetryUnblocksWaiters: waiters queued behind a failing owner
// re-claim the key instead of inheriting the owner's error.
func TestMemoErrorRetryUnblocksWaiters(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	boom := errors.New("owner failure")
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		n := calls.Add(1)
		if n == 1 {
			<-gate
			return nil, boom
		}
		return &metrics.Report{Instructions: r.Instructions}, nil
	}
	r := newTestRunner(t, Options{Workers: 4, Simulate: fn})
	m, run := baseInputs()

	// Four concurrent identical submissions: whichever claims ownership
	// first hits the injected failure; the rest must retry to success
	// rather than inherit it.
	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	reps := make([]*metrics.Report, n)
	pendings := make([]*Pending, n)
	for i := 0; i < n; i++ {
		pendings[i] = r.Submit(context.Background(), m, run)
	}
	close(gate)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = pendings[i].Wait()
		}(i)
	}
	wg.Wait()
	var failures, successes int
	for i := range errs {
		switch {
		case errors.Is(errs[i], boom):
			failures++
		case errs[i] == nil && reps[i] != nil:
			successes++
		default:
			t.Errorf("submission %d: rep=%v err=%v", i, reps[i], errs[i])
		}
	}
	if failures != 1 || successes != n-1 {
		t.Errorf("failures=%d successes=%d, want exactly the owner to fail (1/%d)",
			failures, successes, n-1)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("executed %d times, want 2 (failing owner + one retry)", got)
	}
}

func TestMemoEvictionLRU(t *testing.T) {
	fn, calls := countingSim()
	r := newTestRunner(t, Options{CacheSize: 2, Simulate: fn})
	m, run := baseInputs()

	for seed := int64(1); seed <= 3; seed++ {
		run.Seed = seed
		if _, err := r.Run(context.Background(), m, run); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.cache.(*MemoryCache).Len(); got > 2 {
		t.Errorf("cache holds %d entries, cap 2", got)
	}
	// Seed 1 was the least recently used; it must have been evicted.
	run.Seed = 1
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("evicted entry not re-executed: %d calls, want 4", got)
	}
	if snap := r.Progress().Snapshot(); snap.Evictions == 0 {
		t.Error("evictions not reported to Progress")
	}
	run.Seed = 3
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("resident entry re-executed: %d calls, want 4", got)
	}
}

// TestMemoLRURecencyRefresh: a Get keeps an entry warm, unlike the old
// FIFO memo — re-reading the oldest entry must save it from eviction.
func TestMemoLRURecencyRefresh(t *testing.T) {
	fn, calls := countingSim()
	r := newTestRunner(t, Options{CacheSize: 2, Simulate: fn})
	m, run := baseInputs()

	for seed := int64(1); seed <= 2; seed++ {
		run.Seed = seed
		if _, err := r.Run(context.Background(), m, run); err != nil {
			t.Fatal(err)
		}
	}
	// Touch seed 1 so seed 2 becomes the LRU victim.
	run.Seed = 1
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	run.Seed = 3
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	run.Seed = 1
	if _, err := r.Run(context.Background(), m, run); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("recently-read entry evicted: %d executions, want 3", got)
	}
}

func TestMemoDisabled(t *testing.T) {
	fn, calls := countingSim()
	r := newTestRunner(t, Options{CacheSize: -1, Simulate: fn})
	m, run := baseInputs()
	for i := 0; i < 3; i++ {
		if _, err := r.Run(context.Background(), m, run); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("with memoization disabled, executed %d times, want 3", got)
	}
}

// TestMemoBypassForOpaqueInputs: runs whose behaviour hides behind a
// cpu.Config hook execute every time rather than risking a wrong hit.
func TestMemoBypassForOpaqueInputs(t *testing.T) {
	fn, calls := countingSim()
	r := newTestRunner(t, Options{Simulate: fn})
	m, run := baseInputs()
	m.CPU.EachCycle = func(uint64) uint64 { return 0 }
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), m, run); err != nil {
			t.Fatal(err)
		}
	}
	m2, run2 := baseInputs()
	m2.CPU.Halt = func() bool { return false }
	for i := 0; i < 2; i++ {
		if _, err := r.Run(context.Background(), m2, run2); err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("opaque inputs executed %d times, want 4 (no memoization)", got)
	}
}
