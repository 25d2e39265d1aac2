package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/store"
)

// fleetHosts starts n icrd shard nodes (disk store + /store/v1/
// endpoints over real HTTP) and returns their base URLs.
func fleetHosts(t *testing.T, n int) []string {
	t.Helper()
	hosts := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng := runner.New(runner.Options{
			Simulate: func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
				return &metrics.Report{Benchmark: r.Benchmark, Scheme: "test", Cycles: 1}, nil
			},
		})
		ts := httptest.NewServer(serve.New(serve.Options{Runner: eng, Backend: st, ShardAPI: true}).Handler())
		t.Cleanup(ts.Close)
		hosts[i] = ts.URL
	}
	return hosts
}

// testFleet wires a Sharded backend over a fresh n-node fleet.
func testFleet(t *testing.T, n int) *store.Sharded {
	t.Helper()
	hosts := fleetHosts(t, n)
	shards := make([]store.Shard, n)
	for i, h := range hosts {
		shards[i] = store.NewRemote(h, nil)
	}
	sh, err := store.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestReplayAgainstFleet runs a small load against a real 3-shard fleet
// and checks the counters, percentile ordering, and look-aside fill:
// every distinct key misses exactly once fleet-wide, then hits.
func TestReplayAgainstFleet(t *testing.T) {
	backend := testFleet(t, 3)
	cfg := loadConfig{clients: 8, requests: 2000, keys: 64, zipfS: 1.2, seed: 7}
	res, err := replay(context.Background(), backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Hits + res.Misses + res.Errors; got != cfg.requests {
		t.Errorf("hits+misses+errors = %d, want %d", got, cfg.requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d against a healthy fleet", res.Errors)
	}
	// Look-aside fill: a key can miss once per racing client at worst
	// (concurrent Gets before any Put lands), so misses are bounded by
	// keys*clients and the vast majority of requests must be hits.
	if res.Misses == 0 || res.Misses > uint64(cfg.keys*cfg.clients) {
		t.Errorf("misses = %d, want in (0, %d]", res.Misses, cfg.keys*cfg.clients)
	}
	if res.Hits < cfg.requests/2 {
		t.Errorf("hits = %d of %d: look-aside fill not taking effect", res.Hits, cfg.requests)
	}
	if res.Puts+res.PutErrors != res.Misses {
		t.Errorf("puts+put_errors = %d, want %d (one fill attempt per miss)", res.Puts+res.PutErrors, res.Misses)
	}
	l := res.LatencyMS
	if l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max || l.Max <= 0 {
		t.Errorf("latency percentiles out of order: %+v", l)
	}
	if res.ThroughputRPS <= 0 || res.ElapsedSec <= 0 {
		t.Errorf("throughput %f / elapsed %f not positive", res.ThroughputRPS, res.ElapsedSec)
	}

	// Every filled key must now be readable with the deterministic content.
	rep, err := backend.Get(context.Background(), loadKey(0))
	if err != nil {
		t.Fatalf("hot key after load: %v", err)
	}
	if rep.Benchmark != "icrload" || rep.Cycles != 1 {
		t.Errorf("key 0 content = %+v, want deterministic loadReport(0)", rep)
	}
}

// TestReplayDeterministicSequence verifies the seed contract: the same
// seed against equal fleets issues the identical request sequence. A
// single client has no fill races, so the counters must match exactly.
func TestReplayDeterministicSequence(t *testing.T) {
	cfg := loadConfig{clients: 1, requests: 400, keys: 32, zipfS: 1.3, seed: 42}
	a, err := replay(context.Background(), testFleet(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(context.Background(), testFleet(t, 3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Misses != b.Misses || a.Hits != b.Hits || a.Puts != b.Puts {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
}

// TestReplayContextCancel counts undone work as errors instead of hanging.
func TestReplayContextCancel(t *testing.T) {
	backend := testFleet(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := replay(ctx, backend, loadConfig{clients: 2, requests: 100, keys: 8, zipfS: 1.2, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 100 {
		t.Errorf("cancelled load errors = %d, want all 100", res.Errors)
	}
}

func TestLoadKeyIsValid(t *testing.T) {
	for _, i := range []int{0, 1, 4095} {
		if k := loadKey(i); !store.ValidKey(k) {
			t.Errorf("loadKey(%d) = %q rejected by store.ValidKey", i, k)
		}
	}
	if loadKey(1) == loadKey(2) {
		t.Error("distinct indices collided")
	}
}

// TestCheckFile exercises the -check validator on good and corrupted
// artifacts.
func TestCheckFile(t *testing.T) {
	good := Result{
		Schema: Schema, Date: "2026-08-08", Go: "go", Store: "shards:a,b,c",
		Shards: 3, Clients: 4, Requests: 100, Keys: 16, ZipfS: 1.1, Seed: 1,
		Hits: 90, Misses: 10, Puts: 10, Errors: 0,
		ElapsedSec: 1.5, ThroughputRPS: 66.7,
		LatencyMS: Latency{P50: 1, P90: 2, P99: 3, Max: 4},
	}
	write := func(t *testing.T, mutate func(*Result)) string {
		t.Helper()
		r := good
		if mutate != nil {
			mutate(&r)
		}
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "load.json")
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := checkFile(write(t, nil)); err != nil {
		t.Errorf("valid file rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Result)
		want   string
	}{
		{"wrong schema", func(r *Result) { r.Schema = 99 }, "schema"},
		{"missing date", func(r *Result) { r.Date = "" }, "date"},
		{"counter mismatch", func(r *Result) { r.Hits = 1 }, "hits+misses+errors"},
		{"puts don't cover misses", func(r *Result) { r.Puts = 50 }, "puts"},
		{"zero throughput", func(r *Result) { r.ThroughputRPS = 0 }, "throughput"},
		{"disordered percentiles", func(r *Result) { r.LatencyMS.P50 = 9 }, "percentiles"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFile(write(t, tc.mutate))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestRunEndToEnd drives the binary's run() with real flags against a
// live fleet, then validates its own artifact with -check — the exact
// sequence scripts/ci.sh performs.
func TestRunEndToEnd(t *testing.T) {
	hosts := fleetHosts(t, 3)
	for i, h := range hosts {
		hosts[i] = strings.TrimPrefix(h, "http://")
	}
	out := filepath.Join(t.TempDir(), "LOAD_test.json")
	args := []string{
		"-store", "shards:" + strings.Join(hosts, ","),
		"-clients", "4", "-requests", "500", "-keys", "32",
		"-zipf", "1.2", "-seed", "3",
		"-timeout", time.Minute.String(),
		"-out", out,
	}
	if err := run(args); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-check", out}); err != nil {
		t.Fatalf("-check rejected fresh artifact: %v", err)
	}
	var r Result
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		t.Fatal(err)
	}
	if r.Shards != 3 || r.Requests != 500 {
		t.Errorf("artifact shards=%d requests=%d, want 3/500", r.Shards, r.Requests)
	}
}
