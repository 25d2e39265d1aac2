// Package cliflag centralizes the command-line surface shared by the ICR
// commands. icrsim, icrbench, and icrd all spell -parallel, -timeout,
// -seed, and -instructions the same way, parse comma-separated lists the
// same way, and build their simulation runner (optionally backed by the
// persistent result store) from the same flag values — so behaviour like
// "-parallel 1 gives identical output" holds across every entry point by
// construction rather than by triplicated code.
package cliflag

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/store"
)

// Sim holds the simulation flags every command shares. Zero value +
// Register = the defaults each binary used before the flags were
// unified.
type Sim struct {
	// Instructions is the committed-instruction budget per simulation.
	Instructions uint64
	// Seed seeds workload generation.
	Seed int64
	// Parallel bounds concurrent simulations.
	Parallel int
	// Timeout bounds each individual simulation (0 = none).
	Timeout time.Duration
	// Sample is the raw -sample value; SampleConfig parses it
	// ("" = exact simulation).
	Sample string
	// Adapt is the raw -adapt value; AdaptConfig parses it
	// ("" = static replication).
	Adapt string
	// TwoTier is the raw -twotier value; TwoTierConfig parses it
	// ("" = plain timing L2).
	TwoTier string
	// Store is the raw -store backend spec; ParseStore parses it:
	// "disk:PATH" (or a bare path) for the local persistent store,
	// "shards:HOST1,HOST2,..." for a memcache-style shard fleet, "" for
	// the in-memory cache only (RegisterCache).
	Store string
	// NoCache disables memoization entirely (RegisterCache).
	NoCache bool
}

// Register installs the four core flags on fs.
func (s *Sim) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&s.Instructions, "instructions", config.DefaultInstructions,
		"committed instructions per simulation")
	fs.Int64Var(&s.Seed, "seed", 1, "workload seed")
	fs.IntVar(&s.Parallel, "parallel", runtime.NumCPU(),
		"concurrent simulations (1 = serial; results identical either way)")
	fs.DurationVar(&s.Timeout, "timeout", 0, "per-simulation timeout (0 = none)")
	fs.StringVar(&s.Sample, "sample", "",
		`SMARTS-style sampled simulation: "on" for the default geometry, or `+
			`"period=N[,detail=N][,warmup=N][,conf=90|95|99]" (empty = exact)`)
	fs.StringVar(&s.Adapt, "adapt", "",
		`ICR-ADAPT runtime replication controller: "decay", "ehc", or `+
			`"predictor=decay|ehc[,epoch=N][,hysteresis=N][,maxreplicas=N]`+
			`[,minwindow=N][,maxwindow=N]" (empty = static replication)`)
	fs.StringVar(&s.TwoTier, "twotier", "",
		`second-tier protection: "parity", "ecc", "icr", "icr-ecc", or `+
			`"protect=P|ECC[,replicate=BOOL][,victim=NAME][,decay=N][,cross=BOOL]`+
			`[,latency=N][,fault=MODEL][,prob=F][,faultseed=N]" (empty = plain timing L2)`)
}

// SampleConfig parses the -sample flag value (config.ParseSample syntax).
func (s *Sim) SampleConfig() (config.SampleConfig, error) {
	return config.ParseSample(s.Sample)
}

// AdaptConfig parses the -adapt flag value (adapt.Parse syntax).
func (s *Sim) AdaptConfig() (adapt.Config, error) {
	return adapt.Parse(s.Adapt)
}

// TwoTierConfig parses the -twotier flag value (config.ParseTwoTier
// syntax).
func (s *Sim) TwoTierConfig() (config.TwoTier, error) {
	return config.ParseTwoTier(s.TwoTier)
}

// RegisterCache installs the cache-control flags (commands that memoize:
// icrbench, icrd).
func (s *Sim) RegisterCache(fs *flag.FlagSet) {
	fs.StringVar(&s.Store, "store", "",
		`result-store backend: "disk:PATH" or a bare directory path for the `+
			`local persistent store, "shards:HOST1,HOST2,..." for a shard `+
			`fleet (empty = in-memory cache only)`)
	fs.BoolVar(&s.NoCache, "nocache", false,
		"disable memoization of repeated sweep points")
}

// StoreSpec is a parsed -store value: which backend kind to build and its
// address (a directory for disk, a host list for shards).
type StoreSpec struct {
	// Kind is "none", "disk", or "shards".
	Kind string
	// Path is the store directory (Kind "disk").
	Path string
	// Shards are the fleet hosts (Kind "shards"), scheme-optional.
	Shards []string
}

// ParseStore parses a -store backend spec:
//
//	""                        in-memory cache only
//	"disk:/data/results"      local persistent store
//	"/data/results"           same (a bare path is the disk shorthand)
//	"shards:h1:8080,h2:8080"  memcache-style shard fleet
//
// An unknown "scheme:" prefix is an error, not a weird directory name, so
// a typo like "shard:h1" cannot silently become a local store.
func ParseStore(spec string) (StoreSpec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return StoreSpec{Kind: "none"}, nil
	}
	switch {
	case strings.HasPrefix(spec, "disk:"):
		path := strings.TrimPrefix(spec, "disk:")
		if path == "" {
			return StoreSpec{}, fmt.Errorf("-store disk: needs a directory path")
		}
		return StoreSpec{Kind: "disk", Path: path}, nil
	case strings.HasPrefix(spec, "shards:"):
		var hosts []string
		for _, h := range strings.Split(strings.TrimPrefix(spec, "shards:"), ",") {
			if h = strings.TrimSpace(h); h != "" {
				hosts = append(hosts, h)
			}
		}
		if len(hosts) == 0 {
			return StoreSpec{}, fmt.Errorf("-store shards: needs at least one host")
		}
		return StoreSpec{Kind: "shards", Shards: hosts}, nil
	}
	// A bare path is the disk shorthand — but reject unknown scheme-like
	// prefixes ("shard:h1", "s3:bucket") instead of treating them as odd
	// directory names. Real paths ("/data", "./x", "results") never match.
	if i := strings.Index(spec, ":"); i > 0 && !strings.ContainsAny(spec[:i], "/\\.") {
		return StoreSpec{}, fmt.Errorf("-store %q: unknown backend scheme %q (want disk: or shards:)", spec, spec[:i])
	}
	return StoreSpec{Kind: "disk", Path: spec}, nil
}

// Backend opens the backend a StoreSpec names: nil for "none", the local
// persistent store for "disk", a Sharded fleet client for "shards".
func (sp StoreSpec) Backend(prog *metrics.Progress) (store.Backend, error) {
	switch sp.Kind {
	case "", "none":
		return nil, nil
	case "disk":
		st, err := store.Open(sp.Path, store.Options{
			OnEvict: func(n int) { prog.AddEviction(uint64(n)) },
		})
		if err != nil {
			return nil, fmt.Errorf("opening result store: %w", err)
		}
		return st, nil
	case "shards":
		shards := make([]store.Shard, len(sp.Shards))
		for i, h := range sp.Shards {
			shards[i] = store.NewRemote(h, nil)
		}
		sh, err := store.NewSharded(shards, store.ShardedOptions{})
		if err != nil {
			return nil, fmt.Errorf("building shard fleet: %w", err)
		}
		return sh, nil
	default:
		return nil, fmt.Errorf("unknown store backend kind %q", sp.Kind)
	}
}

// NewRunner builds the command's simulation engine from the flag values:
// a worker pool of Parallel slots whose cache is an in-memory LRU,
// layered over a persistent backend when -store is set (a local disk
// store or a shard fleet). The returned Backend is nil unless one was
// built; the caller owns wiring it into shutdown paths (Drain).
//
// When the backend is a shard fleet, its claim protocol extends the
// runner's singleflight fleet-wide, and nodes given the same sweep
// spread its keys between them.
//
// prog may be nil; the runner then allocates its own counters,
// reachable via Runner.Progress.
func (s *Sim) NewRunner(prog *metrics.Progress) (*runner.Runner, store.Backend, error) {
	if prog == nil {
		prog = metrics.NewProgress()
	}
	cacheSize := 0
	if s.NoCache {
		cacheSize = -1
	}
	var backend store.Backend
	var cache runner.Cache
	var claimer store.Claimer
	if !s.NoCache {
		spec, err := ParseStore(s.Store)
		if err != nil {
			return nil, nil, err
		}
		backend, err = spec.Backend(prog)
		if err != nil {
			return nil, nil, err
		}
		if backend != nil {
			tier := runner.SourceDisk
			if spec.Kind == "shards" {
				tier = runner.SourceShard
			}
			cache = runner.NewTiered(
				runner.NewMemoryCache(0, prog),
				runner.NewStoreCache(backend, tier),
			)
			if c, ok := backend.(store.Claimer); ok {
				claimer = c
			}
		}
	}
	eng := runner.New(runner.Options{
		Workers:   s.Parallel,
		CacheSize: cacheSize,
		Cache:     cache,
		Timeout:   s.Timeout,
		Progress:  prog,
		Claimer:   claimer,
	})
	return eng, backend, nil
}

// Seeds parses a comma-separated seed list ("" = nil).
func Seeds(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// Ints parses a comma-separated int list (replica distances).
func Ints(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}
