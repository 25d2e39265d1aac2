package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/store"
)

// stubSim is a deterministic, instant SimulateFunc counting executions.
func stubSim() (runner.SimulateFunc, *atomic.Int64) {
	var calls atomic.Int64
	fn := func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		calls.Add(1)
		return &metrics.Report{
			Benchmark:    r.Benchmark,
			Scheme:       r.Scheme.Name(),
			Instructions: r.Instructions,
			Cycles:       uint64(r.Seed)*1000 + r.Instructions,
			DL1Reads:     42,
			EnergyL1:     1.25,
		}, nil
	}
	return fn, &calls
}

// gatedSim blocks every simulation until the gate closes (or ctx ends).
func gatedSim(started chan<- struct{}, gate <-chan struct{}) runner.SimulateFunc {
	return func(ctx context.Context, m config.Machine, r config.Run) (*metrics.Report, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-gate:
			return &metrics.Report{Instructions: r.Instructions}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

const runBody = `{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":50000,"seed":3}`

// runReply mirrors RunResponse but keeps the report raw so tests can
// compare the exact bytes the service emitted.
type runReply struct {
	Source string          `json:"source"`
	Report json.RawMessage `json:"report"`
}

func TestHealthz(t *testing.T) {
	fn, _ := stubSim()
	_, ts := newTestServer(t, Options{Runner: runner.New(runner.Options{Simulate: fn})})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body.Status != "ok" || body.Draining {
		t.Errorf("healthz = %d %+v", resp.StatusCode, body)
	}
}

func TestRunCachedSecondCall(t *testing.T) {
	fn, calls := stubSim()
	_, ts := newTestServer(t, Options{Runner: runner.New(runner.Options{Simulate: fn})})

	resp1, data1 := postJSON(t, ts.URL+"/v1/runs", runBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp1.StatusCode, data1)
	}
	var r1, r2 runReply
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Source != runner.SourceSimulated {
		t.Errorf("first run source = %q, want simulated", r1.Source)
	}
	if !bytes.Contains(r1.Report, []byte(`"schema":1`)) {
		t.Errorf("report JSON missing schema field: %s", r1.Report)
	}

	resp2, data2 := postJSON(t, ts.URL+"/v1/runs", runBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run: %d %s", resp2.StatusCode, data2)
	}
	if err := json.Unmarshal(data2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Source != runner.SourceMemory {
		t.Errorf("second run source = %q, want memory", r2.Source)
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Errorf("cached report JSON differs:\n%s\nvs\n%s", r1.Report, r2.Report)
	}
	if calls.Load() != 1 {
		t.Errorf("simulated %d times, want 1", calls.Load())
	}
}

// TestRunPersistsAcrossRestart is the durability acceptance path: a second
// server over a fresh runner but the same store directory serves the run
// from disk, byte-identical.
func TestRunPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	newStack := func() (*runner.Runner, *store.Store, *atomic.Int64) {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fn, calls := stubSim()
		eng := runner.New(runner.Options{
			Simulate: fn,
			Cache:    runner.NewTiered(runner.NewMemoryCache(0, nil), runner.NewStoreCache(st, "")),
		})
		return eng, st, calls
	}

	eng1, _, calls1 := newStack()
	_, ts1 := newTestServer(t, Options{Runner: eng1})
	_, data1 := postJSON(t, ts1.URL+"/v1/runs", runBody)
	var r1 runReply
	if err := json.Unmarshal(data1, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Source != runner.SourceSimulated || calls1.Load() != 1 {
		t.Fatalf("first incarnation: source=%q calls=%d", r1.Source, calls1.Load())
	}
	ts1.Close()

	eng2, _, calls2 := newStack()
	_, ts2 := newTestServer(t, Options{Runner: eng2})
	resp, data2 := postJSON(t, ts2.URL+"/v1/runs", runBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: %d %s", resp.StatusCode, data2)
	}
	var r2 runReply
	if err := json.Unmarshal(data2, &r2); err != nil {
		t.Fatal(err)
	}
	if r2.Source != runner.SourceDisk {
		t.Errorf("restarted source = %q, want disk", r2.Source)
	}
	if calls2.Load() != 0 {
		t.Errorf("restarted server re-simulated %d times", calls2.Load())
	}
	if !bytes.Equal(r1.Report, r2.Report) {
		t.Errorf("report JSON changed across restart:\n%s\nvs\n%s", r1.Report, r2.Report)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	eng := runner.New(runner.Options{Workers: 1, Simulate: gatedSim(started, gate)})
	_, ts := newTestServer(t, Options{Runner: eng, QueueDepth: 1})

	first := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/runs", runBody)
		first <- resp.StatusCode
	}()
	<-started

	resp, data := postJSON(t, ts.URL+"/v1/runs",
		`{"benchmark":"mcf","scheme":"BaseP","instructions":1000}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (%s), want 429", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
		t.Errorf("429 body not a JSON error: %s", data)
	}

	gate <- struct{}{}
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request finished %d, want 200", code)
	}
}

func TestDrainRejectsNewFinishesRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	eng := runner.New(runner.Options{Workers: 1, Simulate: gatedSim(started, gate)})
	s, ts := newTestServer(t, Options{Runner: eng})

	first := make(chan *http.Response, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/runs", runBody)
		first <- resp
	}()
	<-started
	s.Drain()

	resp, data := postJSON(t, ts.URL+"/v1/runs", runBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d (%s), want 503", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("drain 503 response missing Retry-After header")
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var body struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !body.Draining {
		t.Error("healthz should report draining")
	}

	gate <- struct{}{}
	close(gate)
	if code := (<-first).StatusCode; code != http.StatusOK {
		t.Errorf("in-flight request finished %d during drain, want 200", code)
	}
}

func TestRequestTimeoutPropagates(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := make(chan struct{}) // never closed: only ctx can end the sim
	defer close(gate)
	eng := runner.New(runner.Options{Simulate: gatedSim(started, gate)})
	_, ts := newTestServer(t, Options{Runner: eng, RequestTimeout: 50 * time.Millisecond})

	resp, data := postJSON(t, ts.URL+"/v1/runs", runBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out run = %d (%s), want 504", resp.StatusCode, data)
	}
}

func TestFigureEndpoint(t *testing.T) {
	fn, _ := stubSim()
	eng := runner.New(runner.Options{Simulate: fn})
	_, ts := newTestServer(t, Options{Runner: eng})

	resp, data := postJSON(t, ts.URL+"/v1/figures/fig1", `{"instructions":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig1: %d %s", resp.StatusCode, data)
	}
	var res struct {
		ID     string `json:"ID"`
		Series []struct {
			Label  string
			Values []float64
		}
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig1" || len(res.Series) == 0 {
		t.Errorf("unexpected figure payload: %s", data)
	}

	resp, data = postJSON(t, ts.URL+"/v1/figures/nope", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown figure = %d (%s), want 400", resp.StatusCode, data)
	}
}

// TestFigureRejectsBadSeedLists: a seed list holding 0 (which a run reads
// as unset) or a repeated seed is a bad request, answered before any
// simulation runs.
func TestFigureRejectsBadSeedLists(t *testing.T) {
	fn, calls := stubSim()
	_, ts := newTestServer(t, Options{Runner: runner.New(runner.Options{Simulate: fn})})
	for _, body := range []string{`{"seeds":[0,1]}`, `{"seeds":[2,3,2]}`} {
		resp, data := postJSON(t, ts.URL+"/v1/figures/fig1", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", body, resp.StatusCode, data)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d simulations ran for rejected seed lists, want 0", n)
	}
}

func TestBadRequests(t *testing.T) {
	fn, calls := stubSim()
	_, ts := newTestServer(t, Options{Runner: runner.New(runner.Options{Simulate: fn})})
	cases := []struct {
		name, body string
	}{
		{"missing benchmark", `{"scheme":"BaseP"}`},
		{"missing scheme", `{"benchmark":"vpr"}`},
		{"unknown scheme", `{"benchmark":"vpr","scheme":"NotAScheme"}`},
		{"unknown victim", `{"benchmark":"vpr","scheme":"BaseP","victim":"bogus"}`},
		{"unknown fault model", `{"benchmark":"vpr","scheme":"BaseP","fault_prob":0.1,"fault_model":"bogus"}`},
		{"bad adapt spec", `{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"bogus"}`},
		{"adapt without predictor", `{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"epoch=5000"}`},
		{"unknown field", `{"benchmark":"vpr","scheme":"BaseP","bogus_field":1}`},
		// Runs the simulator would refuse or silently run as defaults.
		{"fault probability above 1", `{"benchmark":"vpr","scheme":"BaseP","fault_prob":2}`},
		{"negative fault probability", `{"benchmark":"vpr","scheme":"BaseP","fault_prob":-1}`},
		{"fault model without probability", `{"benchmark":"vpr","scheme":"BaseP","fault_model":"bogus"}`},
		{"fault seed without probability", `{"benchmark":"vpr","scheme":"BaseP","fault_seed":3}`},
		{"adapt on a static scheme", `{"benchmark":"vpr","scheme":"BaseP","adapt":"decay"}`},
		{"unknown benchmark", `{"benchmark":"nosuch","scheme":"BaseP"}`},
		{"negative replicas", `{"benchmark":"vpr","scheme":"ICR-P-PS(S)","replicas":-3}`},
		{"malformed json", `{"benchmark":`},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/runs", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d simulations ran for rejected requests, want 0", n)
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/runs = %d, want 405", resp.StatusCode)
	}
}

func TestExpvarAndPprofExposed(t *testing.T) {
	fn, _ := stubSim()
	_, ts := newTestServer(t, Options{Runner: runner.New(runner.Options{Simulate: fn})})
	if _, data := postJSON(t, ts.URL+"/v1/runs", runBody); len(data) == 0 {
		t.Fatal("priming run failed")
	}

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		ICRD map[string]any `json:"icrd"`
	}
	if err := json.Unmarshal(data, &vars); err != nil {
		t.Fatalf("expvar page is not JSON: %v", err)
	}
	if vars.ICRD == nil {
		t.Fatal("expvar page missing icrd map")
	}
	for _, key := range []string{"memory_hits", "disk_hits", "cache_misses", "inflight", "queue_depth", "rejected"} {
		if _, ok := vars.ICRD[key]; !ok {
			t.Errorf("icrd expvar missing %q (have %v)", key, vars.ICRD)
		}
	}

	pp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof index = %d", pp.StatusCode)
	}
}

func TestStoreStatsInExpvar(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn, _ := stubSim()
	eng := runner.New(runner.Options{
		Simulate: fn,
		Cache:    runner.NewTiered(runner.NewMemoryCache(0, nil), runner.NewStoreCache(st, "")),
	})
	s, _ := newTestServer(t, Options{Runner: eng, Backend: st})
	stats := s.stats()
	if _, ok := stats["store"]; !ok {
		t.Errorf("stats missing store section: %v", stats)
	}
}

func TestTimeoutMSCapsServerTimeout(t *testing.T) {
	// timeout_ms shorter than the server cap wins.
	started := make(chan struct{}, 1)
	gate := make(chan struct{})
	defer close(gate)
	eng := runner.New(runner.Options{Simulate: gatedSim(started, gate)})
	_, ts := newTestServer(t, Options{Runner: eng, RequestTimeout: time.Hour})
	start := time.Now()
	resp, _ := postJSON(t, ts.URL+"/v1/runs",
		fmt.Sprintf(`{"benchmark":"vpr","scheme":"BaseP","timeout_ms":%d}`, 50))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", resp.StatusCode)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("request did not respect timeout_ms")
	}
}
