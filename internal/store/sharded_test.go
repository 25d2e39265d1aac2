package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeShard is an in-process shard node: a map plus a claim table, with
// switchable failure injection. It speaks the same protocol a real icrd
// shard does — including "PUT clears the claim" and "claim on a present
// key answers done".
type fakeShard struct {
	name string

	mu     sync.Mutex
	data   map[string]*metrics.Report
	claims map[string]string // key -> holder token
	issued int

	down atomic.Bool // every call fails (SIGKILLed shard)

	gets      atomic.Int64
	puts      atomic.Int64
	claimReqs atomic.Int64
}

func newFakeShard(name string) *fakeShard {
	return &fakeShard{
		name:   name,
		data:   make(map[string]*metrics.Report),
		claims: make(map[string]string),
	}
}

var errShardDown = errors.New("fake shard: connection refused")

func (f *fakeShard) Name() string { return f.name }

func (f *fakeShard) Get(ctx context.Context, key string) (*metrics.Report, error) {
	f.gets.Add(1)
	if f.down.Load() {
		return nil, errShardDown
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	rep, ok := f.data[key]
	if !ok {
		return nil, ErrMiss
	}
	return rep, nil
}

func (f *fakeShard) Put(ctx context.Context, key string, rep *metrics.Report) error {
	f.puts.Add(1)
	if f.down.Load() {
		return errShardDown
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data[key] = rep
	delete(f.claims, key) // a landed result releases the claim server-side
	return nil
}

func (f *fakeShard) Claim(ctx context.Context, key, token string) (ClaimResponse, error) {
	f.claimReqs.Add(1)
	if err := ctx.Err(); err != nil {
		return ClaimResponse{}, err
	}
	if f.down.Load() {
		return ClaimResponse{}, errShardDown
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.data[key]; ok {
		return ClaimResponse{State: ClaimDone}, nil
	}
	if holder, held := f.claims[key]; held || token != "" {
		if held && holder == token {
			return ClaimResponse{State: ClaimGranted, Token: token, TTLMS: 1000}, nil
		}
		return ClaimResponse{State: ClaimWait, RetryAfterMS: 1}, nil
	}
	f.issued++
	token = fmt.Sprintf("%032x", f.issued)
	f.claims[key] = token
	return ClaimResponse{State: ClaimGranted, Token: token, TTLMS: 1000}, nil
}

func (f *fakeShard) Unclaim(ctx context.Context, key, token string) error {
	if f.down.Load() {
		return errShardDown
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.claims[key] == token {
		delete(f.claims, key)
	}
	return nil
}

func (f *fakeShard) has(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.data[key]
	return ok
}

// testFleet builds a Sharded over n fake shards named like real URLs.
func testFleet(t *testing.T, n int, o ShardedOptions) (*Sharded, []*fakeShard) {
	t.Helper()
	fakes := make([]*fakeShard, n)
	shards := make([]Shard, n)
	for i := range fakes {
		fakes[i] = newFakeShard(fmt.Sprintf("http://10.0.0.%d:8080", i+1))
		shards[i] = fakes[i]
	}
	s, err := NewSharded(shards, o)
	if err != nil {
		t.Fatal(err)
	}
	return s, fakes
}

// byName maps the fakes by ring identity for placement assertions.
func byName(fakes []*fakeShard) map[string]*fakeShard {
	m := make(map[string]*fakeShard, len(fakes))
	for _, f := range fakes {
		m[f.name] = f
	}
	return m
}

// TestShardedRoutesToOwner: a cold Put lands on exactly the ring owner,
// and the following Get reads it back from there.
func TestShardedRoutesToOwner(t *testing.T) {
	s, fakes := testFleet(t, 3, ShardedOptions{})
	nodes := byName(fakes)
	for i := 0; i < 50; i++ {
		key := syntheticKey(i)
		if err := s.Put(ctx, key, testReport(uint64(i))); err != nil {
			t.Fatal(err)
		}
		owner := s.Ring().Owner(key)
		for name, f := range nodes {
			if got, want := f.has(key), name == owner; got != want {
				t.Fatalf("key %d on %s: present=%v, owner=%s", i, name, got, owner)
			}
		}
		rep, err := s.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Cycles != uint64(i) {
			t.Fatalf("key %d read back wrong report", i)
		}
	}
	st := s.Stats()
	if st.Puts != 50 || st.Hits != 50 || st.ReplicaOps != 0 {
		t.Errorf("stats = %+v, want 50 puts, 50 hits, 0 replica ops", st)
	}
}

// TestShardedMissIsTyped: a key nobody holds is ErrMiss, counted once.
func TestShardedMissIsTyped(t *testing.T) {
	s, _ := testFleet(t, 3, ShardedOptions{})
	if _, err := s.Get(ctx, syntheticKey(0)); !errors.Is(err, ErrMiss) {
		t.Fatalf("cold fleet Get = %v, want ErrMiss", err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
}

// TestHotKeyPromotionAndReplication: PromoteHits touches make a key hot;
// the next Put fans out to the full replica set, and reads then succeed
// even with the owner down.
func TestHotKeyPromotionAndReplication(t *testing.T) {
	opts := ShardedOptions{PromoteHits: 8, DemoteHits: 2, WindowOps: 1 << 20}
	s, fakes := testFleet(t, 3, opts)
	nodes := byName(fakes)
	key := syntheticKey(0)

	// Cold phase: the key stays owner-only.
	if err := s.Put(ctx, key, testReport(7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := s.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	if s.hot.isHot(key) {
		t.Fatal("key hot before reaching the promotion threshold")
	}
	// The 8th access promotes.
	if _, err := s.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	if !s.hot.isHot(key) {
		t.Fatal("key not hot after PromoteHits accesses")
	}
	if st := s.Stats(); st.HotKeys != 1 {
		t.Errorf("HotKeys = %d, want 1", st.HotKeys)
	}

	// A hot Put replicates to the whole replica set (owner + 1).
	if err := s.Put(ctx, key, testReport(7)); err != nil {
		t.Fatal(err)
	}
	reps := s.Ring().Replicas(key, 2)
	for _, name := range reps {
		if !nodes[name].has(key) {
			t.Fatalf("hot key missing from replica %s", name)
		}
	}
	if st := s.Stats(); st.ReplicaOps == 0 {
		t.Error("ReplicaOps = 0 after a replicated put")
	}

	// Owner SIGKILLed: hot reads survive off the replica.
	nodes[reps[0]].down.Store(true)
	for i := 0; i < 4; i++ {
		if _, err := s.Get(ctx, key); err != nil {
			t.Fatalf("hot read with owner down: %v", err)
		}
	}
}

// TestHotKeyDemotionHysteresis: decay halves counters every window; a key
// promoted at 8 stays hot while its decayed count exceeds DemoteHits and
// drops out only when traffic fades — and it must NOT flap at the
// promotion boundary.
func TestHotKeyDemotionHysteresis(t *testing.T) {
	opts := ShardedOptions{PromoteHits: 8, DemoteHits: 2, WindowOps: 16}
	s, _ := testFleet(t, 3, opts)
	key := syntheticKey(0)
	filler := syntheticKey(1)

	// 8 touches promote (window not yet full: 8 < 16).
	for i := 0; i < 8; i++ {
		s.hot.touch(key)
	}
	if !s.hot.isHot(key) {
		t.Fatal("not promoted at 8 touches")
	}
	// Fill the window with other traffic to force one decay sweep:
	// count 8 → 4, still above DemoteHits=2 → stays hot.
	for i := 0; i < 8; i++ {
		s.hot.touch(filler)
	}
	if !s.hot.isHot(key) {
		t.Fatal("demoted after one decay window with count 4 > 2 (no hysteresis)")
	}
	// Second idle window: 4 → 2 ≤ DemoteHits → demoted.
	for i := 0; i < 16; i++ {
		s.hot.touch(filler)
	}
	if s.hot.isHot(key) {
		t.Fatal("still hot after decaying to the demotion threshold")
	}
	// Hysteresis: the decayed count (2) plus a few touches must not
	// instantly re-promote below the full promotion threshold.
	for i := 0; i < 3; i++ {
		s.hot.touch(key)
	}
	if s.hot.isHot(key) {
		t.Fatal("re-promoted below PromoteHits: thresholds are flapping")
	}
}

// TestHotSetCapacity: the hot set never exceeds HotCapacity.
func TestHotSetCapacity(t *testing.T) {
	opts := ShardedOptions{PromoteHits: 2, DemoteHits: 1, HotCapacity: 4, WindowOps: 1 << 20}
	s, _ := testFleet(t, 3, opts)
	for i := 0; i < 32; i++ {
		key := syntheticKey(i)
		s.hot.touch(key)
		s.hot.touch(key)
	}
	if n := s.hot.len(); n > 4 {
		t.Errorf("hot set holds %d keys, capacity 4", n)
	}
}

// TestClaimExactlyOneWinner is the fleet-wide anti-stampede guarantee:
// N concurrent claimants polling for one cold key get exactly one grant.
func TestClaimExactlyOneWinner(t *testing.T) {
	s, _ := testFleet(t, 3, ShardedOptions{})
	key := syntheticKey(0)
	const n = 32

	var owners atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for {
				cr, err := s.Claim(cctx, key, "")
				if err != nil {
					t.Errorf("Claim: %v", err)
					return
				}
				switch cr.State {
				case ClaimGranted:
					owners.Add(1)
					// Simulate, then Put — which releases the claim
					// server-side and turns the waiters' polls into done.
					if err := s.Put(cctx, key, testReport(1)); err != nil {
						t.Errorf("winner Put: %v", err)
					}
					return
				case ClaimDone:
					return
				}
				time.Sleep(time.Duration(cr.RetryAfterMS) * time.Millisecond)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := owners.Load(); got != 1 {
		t.Fatalf("%d claimants owned the simulation, want exactly 1", got)
	}
	if st := s.Stats(); st.Claims != 1 {
		t.Errorf("Claims = %d, want 1", st.Claims)
	}
}

// TestClaimDoneAfterResult: once the result exists, claimants are told
// done immediately — they re-Get instead of simulating.
func TestClaimDoneAfterResult(t *testing.T) {
	s, _ := testFleet(t, 3, ShardedOptions{})
	key := syntheticKey(0)
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	cr, err := s.Claim(ctx, key, "")
	if err != nil {
		t.Fatal(err)
	}
	if cr.State != ClaimDone {
		t.Fatalf("claim for a key whose result already exists = %+v, want done", cr)
	}
}

// TestClaimReleaseFreesWaiters: a winner whose simulation fails releases,
// and the next claimant is granted instead of waiting out the TTL.
func TestClaimReleaseFreesWaiters(t *testing.T) {
	s, _ := testFleet(t, 3, ShardedOptions{})
	key := syntheticKey(0)
	held, err := s.Claim(ctx, key, "")
	if err != nil || held.State != ClaimGranted {
		t.Fatalf("first claim: %+v err=%v", held, err)
	}
	if cr, _ := s.Claim(ctx, key, ""); cr.State != ClaimWait {
		t.Fatalf("second claim while held = %+v, want wait", cr)
	}
	if err := s.Unclaim(ctx, key, held.Token); err != nil {
		t.Fatal(err)
	}
	if err := s.Unclaim(ctx, key, held.Token); err != nil { // idempotent
		t.Fatal(err)
	}
	cr, err := s.Claim(ctx, key, "")
	if err != nil || cr.State != ClaimGranted {
		t.Fatalf("claim after release: %+v err=%v, want granted", cr, err)
	}
}

// TestClaimOwnerDownDegrades: an unreachable owner must not stall the
// fleet — the claimant is granted with no token and simulates locally.
func TestClaimOwnerDownDegrades(t *testing.T) {
	s, fakes := testFleet(t, 3, ShardedOptions{})
	nodes := byName(fakes)
	key := syntheticKey(0)
	nodes[s.Ring().Owner(key)].down.Store(true)

	cr, err := s.Claim(ctx, key, "")
	if err != nil {
		t.Fatalf("claim with owner down errored: %v", err)
	}
	if cr.State != ClaimGranted || cr.Token != "" {
		t.Fatalf("claim with owner down = %+v, want a token-less local grant", cr)
	}
}

// TestClaimHonoursContext: Claim never waits — a held key answers wait
// at once — and a cancelled context is the caller's error, not a
// degraded grant.
func TestClaimHonoursContext(t *testing.T) {
	s, _ := testFleet(t, 3, ShardedOptions{})
	key := syntheticKey(0)
	if cr, err := s.Claim(ctx, key, ""); err != nil || cr.State != ClaimGranted {
		t.Fatalf("first claim: %+v err=%v", cr, err)
	}
	if cr, err := s.Claim(ctx, key, ""); err != nil || cr.State != ClaimWait || cr.RetryAfterMS <= 0 {
		t.Fatalf("claim on a held key = %+v err=%v, want an immediate wait with a retry hint", cr, err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Claim(cctx, key, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("claim under a cancelled context returned %v, want context.Canceled", err)
	}
}

// TestShardedPutOwnerFailureSurfaces: the owner write's error belongs to
// the caller (the runner re-tries or counts it), not the void.
func TestShardedPutOwnerFailureSurfaces(t *testing.T) {
	s, fakes := testFleet(t, 3, ShardedOptions{})
	nodes := byName(fakes)
	key := syntheticKey(0)
	nodes[s.Ring().Owner(key)].down.Store(true)
	if err := s.Put(ctx, key, testReport(1)); !errors.Is(err, errShardDown) {
		t.Fatalf("Put with owner down = %v, want the shard error", err)
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Errorf("PutErrors = %d, want 1", st.PutErrors)
	}
}

// TestShardedGetErrorSurfaces: transport trouble on a cold key is an
// error, not a silent miss (which would hide a dead shard behind
// re-simulation).
func TestShardedGetErrorSurfaces(t *testing.T) {
	s, fakes := testFleet(t, 3, ShardedOptions{})
	nodes := byName(fakes)
	key := syntheticKey(0)
	nodes[s.Ring().Owner(key)].down.Store(true)
	if _, err := s.Get(ctx, key); !errors.Is(err, errShardDown) {
		t.Fatalf("Get with owner down = %v, want the shard error", err)
	}
	if st := s.Stats(); st.ReadErrors != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want 1 read error and no miss", st)
	}
}

// TestShardedRejectsBadHysteresis: demote >= promote is a config error.
func TestShardedRejectsBadHysteresis(t *testing.T) {
	shards := []Shard{newFakeShard("a")}
	if _, err := NewSharded(shards, ShardedOptions{PromoteHits: 4, DemoteHits: 4}); err == nil {
		t.Error("demote == promote accepted")
	}
	if _, err := NewSharded(nil, ShardedOptions{}); err == nil {
		t.Error("empty fleet accepted")
	}
}
