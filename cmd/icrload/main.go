// Command icrload replays a memcache-style load against a result-store
// fleet: thousands of synthetic clients issuing Zipf-distributed
// look-aside reads (Get; on miss, synthesize the report and Put it back),
// the same access pattern a farm of icrd front ends generates against a
// shard fleet, minus the simulations. It measures what the store path
// alone can sustain — request throughput and client-observed latency
// percentiles — and writes them as a LOAD_<date>.json artifact.
//
//	icrd -addr :8081 -store disk:/tmp/s1 &   # repeat for each shard
//	icrload -store shards:localhost:8081,localhost:8082,localhost:8083 \
//	        -clients 2000 -requests 1000000 -out LOAD_2026-08-08.json
//	icrload -check LOAD_2026-08-08.json
//
// The emitted schema (version 1):
//
//	{
//	  "schema": 1,
//	  "date": "2026-08-08",
//	  "go": "go1.24.0 linux/amd64",
//	  "store": "shards:localhost:8081,...",
//	  "shards": 3, "clients": 2000, "requests": 1000000,
//	  "keys": 4096, "zipf_s": 1.1, "seed": 1,
//	  "hits": 995904, "misses": 4096, "puts": 4096, "put_errors": 0,
//	  "retries": 112, "errors": 0,
//	  "elapsed_sec": 12.3, "throughput_rps": 81234.5,
//	  "latency_ms": {"p50": 1.2, "p90": 3.4, "p99": 9.8, "max": 31.0}
//	}
//
// -check validates that a file parses, carries schema 1, that the
// counters add up (hits+misses+errors = requests), and that the latency
// percentiles are ordered — the contract scripts/ci.sh enforces on the
// committed artifact and on every smoke run.
//
// Every client derives its keys and Zipf sampler from -seed, so two runs
// against equal fleets issue the identical request sequence; only the
// timings differ.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliflag"
	"repro/internal/metrics"
	"repro/internal/store"
)

// Schema is the LOAD file format version.
const Schema = 1

// Latency is the client-observed per-request latency summary, merged
// across every client and sorted before the percentiles are cut.
type Latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Result is the LOAD_<date>.json payload.
type Result struct {
	Schema        int     `json:"schema"`
	Date          string  `json:"date"`
	Go            string  `json:"go"`
	Store         string  `json:"store"`
	Shards        int     `json:"shards"`
	Clients       int     `json:"clients"`
	Requests      uint64  `json:"requests"`
	Keys          int     `json:"keys"`
	ZipfS         float64 `json:"zipf_s"`
	Seed          int64   `json:"seed"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Puts          uint64  `json:"puts"`
	PutErrors     uint64  `json:"put_errors"`
	Retries       uint64  `json:"retries"`
	Errors        uint64  `json:"errors"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyMS     Latency `json:"latency_ms"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "icrload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("icrload", flag.ContinueOnError)
	var (
		storeSpec   = fs.String("store", "", `fleet to load: "shards:HOST1,HOST2,..." (or any -store backend)`)
		clients     = fs.Int("clients", 2000, "concurrent synthetic clients")
		requests    = fs.Uint64("requests", 1_000_000, "total requests across all clients")
		keys        = fs.Int("keys", 4096, "distinct keys in the synthetic keyspace")
		zipfS       = fs.Float64("zipf", 1.1, "Zipf skew s (> 1; larger = hotter head)")
		seed        = fs.Int64("seed", 1, "request-sequence seed")
		out         = fs.String("out", "", "output JSON path (empty = stdout)")
		check       = fs.String("check", "", "validate an existing LOAD json and exit")
		timeout     = fs.Duration("timeout", 10*time.Minute, "whole-load deadline")
		showVersion = cliflag.RegisterVersion(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(cliflag.Version("icrload"))
		return nil
	}
	if *check != "" {
		if err := checkFile(*check); err != nil {
			return fmt.Errorf("%s: %w", *check, err)
		}
		fmt.Printf("%s: ok\n", *check)
		return nil
	}

	spec, err := cliflag.ParseStore(*storeSpec)
	if err != nil {
		return err
	}
	if spec.Kind == "none" {
		return fmt.Errorf("-store is required (e.g. shards:h1:8080,h2:8080)")
	}
	backend, err := spec.Backend(metrics.NewProgress())
	if err != nil {
		return err
	}
	if *clients < 1 || *requests == 0 || *keys < 1 || *zipfS <= 1 {
		return fmt.Errorf("need -clients >= 1, -requests >= 1, -keys >= 1, -zipf > 1")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := replay(ctx, backend, loadConfig{
		clients:  *clients,
		requests: *requests,
		keys:     *keys,
		zipfS:    *zipfS,
		seed:     *seed,
	})
	if err != nil {
		return err
	}
	res.Store = *storeSpec
	res.Shards = len(spec.Shards)
	if spec.Kind == "disk" {
		res.Shards = 1
	}
	res.Date = time.Now().Format("2006-01-02")
	res.Go = runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH

	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icrload: %d requests, %.0f req/s, p50 %.2fms p99 %.2fms -> %s\n",
		res.Requests, res.ThroughputRPS, res.LatencyMS.P50, res.LatencyMS.P99, *out)
	return nil
}

type loadConfig struct {
	clients  int
	requests uint64
	keys     int
	zipfS    float64
	seed     int64
}

// loadKey derives the i-th synthetic key: sha256 hex, the same shape as
// runner.Key.String(), so it passes the shard protocol's key validation.
func loadKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("icrload-%d", i)))
	return hex.EncodeToString(sum[:])
}

// loadReport synthesizes the deterministic report stored under the i-th
// key: every field is a pure function of i, so concurrent writers of one
// key are idempotent (the content-addressing property the real store
// relies on) and any client can verify what it reads back.
func loadReport(i int) *metrics.Report {
	return &metrics.Report{
		Benchmark:    "icrload",
		Scheme:       "synthetic",
		Instructions: 1000,
		Cycles:       uint64(i)*1000 + 1,
		DL1Reads:     uint64(i),
	}
}

// replay fans cfg.clients goroutines over the fleet and merges their
// latency observations.
func replay(ctx context.Context, backend store.Backend, cfg loadConfig) (*Result, error) {
	perClient := cfg.requests / uint64(cfg.clients)
	extra := cfg.requests % uint64(cfg.clients)

	var hits, misses, puts, putErrs, retries, errs atomic.Uint64
	latencies := make([][]float64, cfg.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		n := perClient
		if uint64(c) < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(c int, n uint64) {
			defer wg.Done()
			// Each client is an independent deterministic request stream.
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)))
			zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(cfg.keys-1))
			lat := make([]float64, 0, n)
			for i := uint64(0); i < n; i++ {
				if ctx.Err() != nil {
					errs.Add(n - i)
					break
				}
				idx := int(zipf.Uint64())
				key := loadKey(idx)
				t0 := time.Now()
				_, err := getWithRetry(ctx, backend, key, &retries)
				switch {
				case err == nil:
					hits.Add(1)
				case errorsIsMiss(err):
					// The Get missed either way; a failed fill (e.g. a 429
					// from an overloaded shard) is tracked separately so
					// hits+misses+errors still partitions the requests.
					misses.Add(1)
					if perr := backend.Put(ctx, key, loadReport(idx)); perr != nil {
						putErrs.Add(1)
					} else {
						puts.Add(1)
					}
				default:
					errs.Add(1)
				}
				lat = append(lat, float64(time.Since(t0).Microseconds())/1000.0)
			}
			latencies[c] = lat
		}(c, n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := make([]float64, 0, cfg.requests)
	for _, l := range latencies {
		merged = append(merged, l...)
	}
	sort.Float64s(merged)
	res := &Result{
		Schema:     Schema,
		Clients:    cfg.clients,
		Requests:   cfg.requests,
		Keys:       cfg.keys,
		ZipfS:      cfg.zipfS,
		Seed:       cfg.seed,
		Hits:       hits.Load(),
		Misses:     misses.Load(),
		Puts:       puts.Load(),
		PutErrors:  putErrs.Load(),
		Retries:    retries.Load(),
		Errors:     errs.Load(),
		ElapsedSec: elapsed.Seconds(),
		LatencyMS: Latency{
			P50: percentile(merged, 0.50),
			P90: percentile(merged, 0.90),
			P99: percentile(merged, 0.99),
			Max: percentile(merged, 1.00),
		},
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(len(merged)) / elapsed.Seconds()
	}
	return res, nil
}

func errorsIsMiss(err error) bool { return errors.Is(err, store.ErrMiss) }

// getWithRetry is the client's overload discipline: a Get that fails for
// a reason other than a miss (a 429 when the hot key's owner shard is
// over its admission queue, a transient transport error) is retried a few
// times with growing backoff before it counts as a request error. Misses
// and successes return immediately.
func getWithRetry(ctx context.Context, backend store.Backend, key string, retries *atomic.Uint64) (*metrics.Report, error) {
	const attempts = 4
	var rep *metrics.Report
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			retries.Add(1)
			t := time.NewTimer(time.Duration(a) * 25 * time.Millisecond)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		rep, err = backend.Get(ctx, key)
		if err == nil || errors.Is(err, store.ErrMiss) {
			return rep, err
		}
	}
	return nil, err
}

// percentile cuts p in [0,1] from a sorted slice (nearest-rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// checkFile enforces the LOAD schema contract CI relies on.
func checkFile(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r Result
	if err := json.Unmarshal(buf, &r); err != nil {
		return err
	}
	if r.Schema != Schema {
		return fmt.Errorf("schema %d, want %d", r.Schema, Schema)
	}
	if r.Date == "" || r.Store == "" {
		return fmt.Errorf("missing date or store field")
	}
	if r.Clients < 1 || r.Requests == 0 || r.Keys < 1 {
		return fmt.Errorf("non-positive clients/requests/keys")
	}
	if got := r.Hits + r.Misses + r.Errors; got != r.Requests {
		return fmt.Errorf("hits+misses+errors = %d, want requests = %d", got, r.Requests)
	}
	if r.Puts+r.PutErrors != r.Misses {
		return fmt.Errorf("puts+put_errors = %d, want misses = %d", r.Puts+r.PutErrors, r.Misses)
	}
	if r.ElapsedSec <= 0 || r.ThroughputRPS <= 0 {
		return fmt.Errorf("non-positive elapsed/throughput")
	}
	l := r.LatencyMS
	if l.P50 < 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		return fmt.Errorf("latency percentiles out of order: %+v", l)
	}
	return nil
}
