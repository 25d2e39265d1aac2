// sharded.go is the fleet view of the result store: a Backend that
// consistent-hashes keys over a static ring of shard nodes, in the style
// of a memcache deployment.
//
//   - Look-aside reads: Get consults the key's owner shard (and, for hot
//     keys, its replicas); a miss means the caller simulates and writes
//     the result back through Put.
//   - Write-through: Put always lands on the owner; hot keys are also
//     written to R-1 ring successors, so popular results survive a shard
//     loss and their read load spreads over R nodes.
//   - Hot-key tracking: a windowed, decaying hit counter promotes the
//     top-most-requested keys into the hot set (promotion at
//     hotPromoteHits, demotion at the lower hotDemoteHits — hysteresis,
//     so a key does not flap at the threshold).
//   - Claims: Claim asks the owning shard's claim endpoint "who simulates
//     this key", generalizing the runner's in-process singleflight to the
//     whole fleet: a cold popular key triggers exactly one simulation no
//     matter how many front ends miss on it concurrently, and nodes given
//     the same sweep spread its keys between them.
//
// Failure model: a dead or draining shard degrades service, never
// correctness. Gets surface an error (the runner counts it and
// re-simulates), Puts to the owner fail loudly, claim trouble falls back
// to local simulation — and because keys are content-addressed, duplicate
// simulation is wasted work, not wrong results.
package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Shard is one node of the fleet as the Sharded backend sees it:
// *Remote, or an in-process fake in tests.
type Shard interface {
	Name() string
	Get(ctx context.Context, key string) (*metrics.Report, error)
	Put(ctx context.Context, key string, rep *metrics.Report) error
	Claimer
}

var _ Shard = (*Remote)(nil)

// Hot-key tracking: a key turns hot at hotPromoteHits windowed hits and
// cools at or below hotDemoteHits (lower, for hysteresis); every
// hotWindowOps accesses all counters halve. At most hotCapacity keys are
// hot, and each is served by hotReplicas nodes, owner included.
const (
	hotReplicas    = 2
	hotCapacity    = 64
	hotPromoteHits = 8
	hotDemoteHits  = 2
	hotWindowOps   = 4096
)

// Sharded is the Backend over a fleet of shards. Safe for concurrent use.
type Sharded struct {
	ring   *Ring
	shards map[string]Shard
	hot    *hotTracker
	rr     atomic.Uint64 // round-robin cursor for hot-key replica reads

	hits       atomic.Uint64
	misses     atomic.Uint64
	puts       atomic.Uint64
	readErrors atomic.Uint64
	putErrors  atomic.Uint64
	replicaOps atomic.Uint64
	claims     atomic.Uint64
	claimWaits atomic.Uint64
}

// Backend and Claimer conformance.
var (
	_ Backend = (*Sharded)(nil)
	_ Claimer = (*Sharded)(nil)
)

// NewSharded builds the fleet view over the given shards. Shard names
// must be unique; they are the ring identities, so every client built
// from the same shard list agrees on placement.
func NewSharded(shards []Shard) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("store: sharded backend needs at least one shard")
	}
	names := make([]string, len(shards))
	byName := make(map[string]Shard, len(shards))
	for i, sh := range shards {
		names[i] = sh.Name()
		byName[sh.Name()] = sh
	}
	ring, err := NewRing(names, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	return &Sharded{
		ring:   ring,
		shards: byName,
		hot:    newHotTracker(),
	}, nil
}

// Ring exposes the placement ring (icrload reporting, tests).
func (s *Sharded) Ring() *Ring { return s.ring }

// readSet returns the shards to consult for key, owner first; hot keys
// get their full replica set.
func (s *Sharded) readSet(key string, hot bool) []string {
	if hot {
		return s.ring.Replicas(key, hotReplicas)
	}
	return s.ring.Replicas(key, 1)
}

// Get implements Backend: look-aside read from the key's owner, spread
// over the replica set when the key is hot. A replica miss falls through
// to the other copies; a clean miss everywhere is ErrMiss; transport
// trouble with no copy found is surfaced.
func (s *Sharded) Get(ctx context.Context, key string) (*metrics.Report, error) {
	hot := s.hot.touch(key)
	nodes := s.readSet(key, hot)
	// Rotate the starting replica so hot-key read load spreads across the
	// replica set instead of hammering the owner.
	start := 0
	if len(nodes) > 1 {
		start = int(s.rr.Add(1)) % len(nodes)
	}
	var firstErr error
	for i := 0; i < len(nodes); i++ {
		name := nodes[(start+i)%len(nodes)]
		rep, err := s.shards[name].Get(ctx, key)
		switch {
		case err == nil:
			s.hits.Add(1)
			if name != nodes[0] {
				s.replicaOps.Add(1)
			}
			return rep, nil
		case errors.Is(err, ErrMiss):
			continue
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		s.readErrors.Add(1)
		return nil, firstErr
	}
	s.misses.Add(1)
	return nil, ErrMiss
}

// Put implements Backend: write-through to the owner, plus best-effort
// replication to the rest of the replica set when the key is hot. The
// owner write's error is the caller's; replica failures are only counted.
func (s *Sharded) Put(ctx context.Context, key string, rep *metrics.Report) error {
	nodes := s.readSet(key, s.hot.isHot(key))
	var ownerErr error
	for i, name := range nodes {
		err := s.shards[name].Put(ctx, key, rep)
		switch {
		case i == 0:
			ownerErr = err
		case err != nil:
			s.putErrors.Add(1)
		default:
			s.replicaOps.Add(1)
		}
	}
	if ownerErr != nil {
		s.putErrors.Add(1)
		return fmt.Errorf("store: put %s to owner: %w", key, ownerErr)
	}
	s.puts.Add(1)
	return nil
}

// Claim implements Claimer: one request to the key's owning shard. An
// unreachable owner, or one answering a state this client does not
// know, degrades to a grant with no token — local simulation beats a
// stalled fleet.
func (s *Sharded) Claim(ctx context.Context, key, token string) (ClaimResponse, error) {
	resp, err := s.shards[s.ring.Owner(key)].Claim(ctx, key, token)
	if err != nil {
		if ctx.Err() != nil {
			return ClaimResponse{}, ctx.Err()
		}
		s.readErrors.Add(1)
		return ClaimResponse{State: ClaimGranted}, nil
	}
	switch resp.State {
	case ClaimGranted:
		if token == "" {
			s.claims.Add(1)
		}
	case ClaimWait:
		s.claimWaits.Add(1)
	case ClaimDone:
	default:
		return ClaimResponse{State: ClaimGranted}, nil
	}
	return resp, nil
}

// Unclaim implements Claimer. It runs on a context detached from the
// caller's cancellation — the failed run's context may already be done —
// and bounded to a few seconds.
func (s *Sharded) Unclaim(ctx context.Context, key, token string) error {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	return s.shards[s.ring.Owner(key)].Unclaim(ctx, key, token)
}

// Stats implements Backend: the client-side fleet counters.
func (s *Sharded) Stats() Stats {
	return Stats{
		Hits:       s.hits.Load(),
		Misses:     s.misses.Load(),
		Puts:       s.puts.Load(),
		ReadErrors: s.readErrors.Load(),
		PutErrors:  s.putErrors.Load(),
		HotKeys:    s.hot.len(),
		ReplicaOps: s.replicaOps.Load(),
		Claims:     s.claims.Load(),
		ClaimWaits: s.claimWaits.Load(),
	}
}

// Drain implements Backend: drains every shard client.
func (s *Sharded) Drain() {
	for _, sh := range s.shards {
		if b, ok := sh.(interface{ Drain() }); ok {
			b.Drain()
		}
	}
}

// hotTracker is the windowed decaying hit counter behind hot-key
// replication. All state transitions are driven by access counts, not
// wall time, so tests are deterministic.
type hotTracker struct {
	mu     sync.Mutex
	counts map[string]uint64
	hot    map[string]bool
	ops    uint64
}

func newHotTracker() *hotTracker {
	return &hotTracker{counts: make(map[string]uint64), hot: make(map[string]bool)}
}

// touch records one access and returns whether key is hot afterwards.
// Every hotWindowOps accesses, all counters halve: a key must sustain
// traffic to stay above the demotion threshold.
func (t *hotTracker) touch(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[key]++
	if !t.hot[key] && t.counts[key] >= hotPromoteHits && len(t.hot) < hotCapacity {
		t.hot[key] = true
	}
	t.ops++
	if t.ops >= hotWindowOps {
		t.ops = 0
		for k, c := range t.counts {
			c /= 2
			if c == 0 {
				delete(t.counts, k)
			} else {
				t.counts[k] = c
			}
			if t.hot[k] && c <= hotDemoteHits {
				delete(t.hot, k)
			}
		}
	}
	return t.hot[key]
}

// isHot reports hotness without recording an access (the write path).
func (t *hotTracker) isHot(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hot[key]
}

// len returns the hot-set size.
func (t *hotTracker) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.hot)
}
