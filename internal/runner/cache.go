package runner

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/store"
)

// DefaultCacheSize is the default number of settled reports the in-memory
// cache retains. Reports are small flat structs (~400 bytes), so even the
// full §5 evaluation fits comfortably.
const DefaultCacheSize = 4096

// Cache tiers, as reported by Cache.Get and Pending.Source.
const (
	// SourceMemory marks a run served from the in-memory cache (or
	// coalesced onto an identical in-flight run).
	SourceMemory = "memory"
	// SourceDisk marks a run served from the persistent disk store.
	SourceDisk = "disk"
	// SourceShard marks a run served from a remote store shard (a
	// store.Remote or store.Sharded backend).
	SourceShard = "shard"
	// SourceSimulated marks a run that actually executed in this process.
	SourceSimulated = "simulated"
)

// Cache is a pluggable content-addressed report store consulted by the
// runner before executing a simulation. Implementations must be safe for
// concurrent use and must never mutate a stored report after Put (the
// runner copies on return, so callers cannot either).
//
// Get's tier names the layer that satisfied the lookup (SourceMemory,
// SourceDisk, SourceShard) so the runner can account hits per layer. A
// clean miss is store.ErrMiss; any other error is real trouble (sick
// disk, unreachable shard) — the runner counts it and degrades to
// execution rather than failing the run.
type Cache interface {
	Get(ctx context.Context, key Key) (rep *metrics.Report, tier string, err error)
	Put(ctx context.Context, key Key, rep *metrics.Report) error
}

// MemoryCache is the in-memory Cache: a bounded LRU over settled reports.
// It is what the pre-disk-store memo map became; a Runner builds one by
// default (Options.CacheSize). It never returns an error other than
// store.ErrMiss.
type MemoryCache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used; values are *memEntry
	prog    *metrics.Progress
}

type memEntry struct {
	key Key
	rep *metrics.Report
}

// NewMemoryCache returns an LRU cache holding at most capacity reports
// (<= 0 means DefaultCacheSize). Evictions are reported to prog when it
// is non-nil.
func NewMemoryCache(capacity int, prog *metrics.Progress) *MemoryCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &MemoryCache{
		cap:     capacity,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		prog:    prog,
	}
}

// Get returns the cached report and refreshes its recency.
func (c *MemoryCache) Get(ctx context.Context, key Key) (*metrics.Report, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	elem, ok := c.entries[key]
	if !ok {
		return nil, "", store.ErrMiss
	}
	c.lru.MoveToFront(elem)
	return elem.Value.(*memEntry).rep, SourceMemory, nil
}

// Put inserts (or refreshes) a report, evicting the least-recently-used
// entries beyond capacity. It never fails.
func (c *MemoryCache) Put(ctx context.Context, key Key, rep *metrics.Report) error {
	var evicted uint64
	c.mu.Lock()
	if elem, ok := c.entries[key]; ok {
		elem.Value.(*memEntry).rep = rep
		c.lru.MoveToFront(elem)
	} else {
		c.entries[key] = c.lru.PushFront(&memEntry{key: key, rep: rep})
		for c.lru.Len() > c.cap {
			back := c.lru.Back()
			delete(c.entries, back.Value.(*memEntry).key)
			c.lru.Remove(back)
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 && c.prog != nil {
		c.prog.AddEviction(evicted)
	}
	return nil
}

// Len returns the number of resident reports.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// StoreCache adapts a store.Backend (the disk store, a remote shard, or
// the sharded fleet view) to the Cache interface, translating Keys to
// their hex form. The tier names the layer in Pending.Source and the
// per-tier hit counters: SourceDisk for a local store, SourceShard for a
// remote one.
type StoreCache struct {
	st        store.Backend
	tier      string
	putErrors atomic.Uint64
}

// NewStoreCache wraps a persistent backend as a runner Cache layer.
// An empty tier defaults to SourceDisk.
func NewStoreCache(st store.Backend, tier string) *StoreCache {
	if tier == "" {
		tier = SourceDisk
	}
	return &StoreCache{st: st, tier: tier}
}

// Get consults the backend. Misses and errors pass through untouched; the
// tier tags hits with this layer's identity.
func (c *StoreCache) Get(ctx context.Context, key Key) (*metrics.Report, string, error) {
	rep, err := c.st.Get(ctx, key.String())
	if err != nil {
		return nil, "", err
	}
	return rep, c.tier, nil
}

// Put persists the report, counting failures (the runner also counts them
// and keeps the run alive — the report is already in hand).
func (c *StoreCache) Put(ctx context.Context, key Key, rep *metrics.Report) error {
	if err := c.st.Put(ctx, key.String(), rep); err != nil {
		c.putErrors.Add(1)
		return err
	}
	return nil
}

// PutErrors returns how many persists have failed since construction.
func (c *StoreCache) PutErrors() uint64 { return c.putErrors.Load() }

// Tiered layers caches fastest-first (memory, then disk, then shards). A
// hit in a lower layer is promoted into every layer above it, so a disk
// hit after a restart warms the memory cache. Puts write through to all
// layers.
type Tiered struct {
	layers []Cache
}

// NewTiered composes cache layers in lookup order; nil layers are
// skipped.
func NewTiered(layers ...Cache) *Tiered {
	t := &Tiered{}
	for _, l := range layers {
		if l != nil {
			t.layers = append(t.layers, l)
		}
	}
	return t
}

// Get consults each layer in order, promoting hits upward. A layer
// returning a real error (not a miss) does not stop the search — a lower
// layer may still hold the report; the first such error is returned only
// when every layer comes up empty, so the caller can distinguish "miss"
// from "miss, and a layer is sick".
func (t *Tiered) Get(ctx context.Context, key Key) (*metrics.Report, string, error) {
	var firstErr error
	for i, l := range t.layers {
		rep, tier, err := l.Get(ctx, key)
		if err != nil {
			if !errors.Is(err, store.ErrMiss) && firstErr == nil {
				firstErr = err
			}
			continue
		}
		for j := 0; j < i; j++ {
			t.layers[j].Put(ctx, key, rep) //icrvet:ignore droppederr best-effort upward promotion; the hit is already in hand
		}
		return rep, tier, nil
	}
	if firstErr != nil {
		return nil, "", firstErr
	}
	return nil, "", store.ErrMiss
}

// Put writes through to every layer. The first failure is returned, but
// every layer still sees the write — a sick disk must not stop the shard
// write-through or vice versa.
func (t *Tiered) Put(ctx context.Context, key Key, rep *metrics.Report) error {
	var firstErr error
	for _, l := range t.layers {
		if err := l.Put(ctx, key, rep); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// copyReport returns an independent copy of a cached report, so no caller
// can mutate the cached value another caller sees. metrics.Report is a
// flat value struct except for the optional Sampling, Adaptive, and
// TwoTier blocks (and Adaptive's Trajectory slice), which are deep-copied
// explicitly; the compile-time-adjacent test in memo_test.go guards that
// assumption against future reference-typed fields.
func copyReport(r *metrics.Report) *metrics.Report {
	if r == nil {
		return nil
	}
	cp := *r
	if r.Sampling != nil {
		s := *r.Sampling
		cp.Sampling = &s
	}
	if r.Adaptive != nil {
		a := *r.Adaptive
		if a.Trajectory != nil {
			a.Trajectory = append([]metrics.AdaptiveMove(nil), a.Trajectory...)
		}
		cp.Adaptive = &a
	}
	if r.TwoTier != nil {
		tt := *r.TwoTier
		cp.TwoTier = &tt
	}
	return &cp
}
