package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// serve-zipf: an open loop of POST /v1/runs at a fixed offered rate, keys
// drawn from a Zipf distribution, against an in-process disk-backed icrd.
//
// The key distribution is the one cmd/icrload replays against the store
// fleet by default and that LOAD_2026-08-08.json records: Zipf s = 1.1 over
// 4096 keys. There the 8 hottest keys draw 40% of requests and the 1024
// hottest 90%, so an 8-report memory cache in front of a store holding the
// 1024 hottest keys splits requests into memory hits, disk hits, and misses
// (first touches of the colder 10%) that simulate and fsync a Put. Most
// requests are disk hits, so the median request is one whatever the seed.
const (
	serveRate   = 200.0  // offered requests per second, below saturation (README.md)
	zipfS       = 1.1    // Zipf exponent over key ranks
	serveKeys   = 4096   // key universe
	serveStored = 1024   // hottest keys on disk before the session
	serveMemCap = 8      // memory-cache capacity, in reports
	serveBudget = 10_000 // instructions per requested run
	serveQueue  = 256    // admission queue depth (icrd -queue)
	serveGrace  = 5 * time.Second
)

var serveSchemes = []string{"BaseP", "BaseECC", "ICR-P-PS(S)", "ICR-ECC-PP(LS)"}

// requestFor maps a key rank to its request: benchmarks vary fastest,
// then schemes, then seeds.
func requestFor(k int) serve.RunRequest {
	benches := workload.Names()
	nb, ns := len(benches), len(serveSchemes)
	return serve.RunRequest{
		Benchmark:    benches[k%nb],
		Scheme:       serveSchemes[(k/nb)%ns],
		Instructions: serveBudget,
		Seed:         int64(1 + k/(nb*ns)),
	}
}

// runFor is the config.Run the server builds from requestFor(k).
func runFor(k int) (config.Run, error) {
	req := requestFor(k)
	s, err := core.SchemeByName(req.Scheme)
	if err != nil {
		return config.Run{}, err
	}
	r := config.NewRun(req.Benchmark, s)
	r.Instructions = req.Instructions
	r.Seed = req.Seed
	return r, nil
}

type serveWorkload struct {
	seed    int64
	workers int // the server's worker slots: icrd's default -parallel, nproc
	rec     *recorder
	dir     string // the store's directory

	mu       sync.Mutex
	expected map[int]*metrics.Report // direct sim.Simulate of each key

	stored map[string]bool // file names of the stored entries
	keys   []string        // store keys of the stored entries
	sess   *session        // the next measured phase's requests

	rn  *runner.Runner
	srv *serve.Server
}

// session is one measured phase's requests, drawn before it starts.
type session struct {
	due     []time.Duration
	keys    []int
	runKeys map[int]string // runner.KeyFor of each key's run
}

// newServeWorkload simulates the stored keys directly and writes them into
// the store with fsynced Puts, once, before the timed set-ups: the disk's
// fsync latency is noise, not set-up work.
func newServeWorkload(seed int64, rec *recorder, dir string) (*serveWorkload, error) {
	w := &serveWorkload{seed: seed, workers: runtime.NumCPU(), rec: rec, dir: dir, expected: map[int]*metrics.Report{}, stored: map[string]bool{}}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	keys := make([]int, serveStored)
	for i := range keys {
		keys[i] = i
	}
	if err := w.expect(keys); err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{MaxBytes: -1})
	if err != nil {
		return nil, err
	}
	m := config.Default()
	for _, k := range keys {
		r, err := runFor(k)
		if err != nil {
			return nil, err
		}
		key := runKey(m, r)
		if err := st.Put(context.Background(), key, w.expected[k]); err != nil {
			return nil, err
		}
		w.keys = append(w.keys, key)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		w.stored[e.Name()] = true
	}
	return w, nil
}

// expect computes the direct sim.Simulate report of every key not yet
// known, on every core.
func (w *serveWorkload) expect(keys []int) error {
	workers := runtime.NumCPU()
	todo := make(chan int, len(keys))
	for _, k := range keys {
		w.mu.Lock()
		_, ok := w.expected[k]
		w.mu.Unlock()
		if !ok {
			todo <- k
		}
	}
	close(todo)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range todo {
				r, err := runFor(k)
				if err == nil {
					var rep *metrics.Report
					if rep, err = sim.Simulate(config.Default(), r); err == nil {
						w.mu.Lock()
						w.expected[k] = rep
						w.mu.Unlock()
						continue
					}
				}
				errs <- fmt.Errorf("key %d: %w", k, err)
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// setup reopens the store, as a restarted icrd would, reads every stored
// entry once, builds the tiered runner and the server over the store, and
// warms the memory cache with the serveMemCap hottest keys through the
// handler. It first removes what an earlier session put, so that every
// session starts from the serveStored stored keys.
func (w *serveWorkload) setup() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !w.stored[e.Name()] {
			if err := os.Remove(filepath.Join(w.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	st, err := store.Open(w.dir, store.Options{MaxBytes: -1})
	if err != nil {
		return err
	}
	if st.Len() != serveStored {
		return fmt.Errorf("store holds %d entries, want %d", st.Len(), serveStored)
	}
	ctx := context.Background()
	for _, key := range w.keys {
		if _, err := st.Get(ctx, key); err != nil {
			return fmt.Errorf("stored entry %s: %w", key, err)
		}
	}
	prog := metrics.NewProgress()
	w.rn = runner.New(runner.Options{
		Workers: w.workers,
		Cache: runner.NewTiered(
			tracedCache{inner: runner.NewMemoryCache(serveMemCap, prog), rec: w.rec},
			runner.NewStoreCache(tracedBackend{Backend: st, rec: w.rec}, runner.SourceDisk),
		),
		Progress: prog,
		Simulate: w.rec.simulate,
	})
	w.srv = serve.New(serve.Options{Runner: w.rn, Backend: st, QueueDepth: serveQueue})
	for k := 0; k < serveMemCap; k++ {
		if res := w.post(ctx, k); res.code != http.StatusOK {
			return fmt.Errorf("warming key %d: status %d: %s", k, res.code, res.body)
		}
	}
	w.rec.reset()
	return nil
}

// close removes the store.
func (w *serveWorkload) close() error {
	return os.RemoveAll(w.dir)
}

type reqResult struct {
	key        int
	code       int
	body       []byte
	start, end int64 // handler entry and return, recorder time
	latency    time.Duration
	source     string
}

func (w *serveWorkload) post(ctx context.Context, k int) reqResult {
	body, _ := json.Marshal(requestFor(k)) // a RunRequest always encodes
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/runs", bytes.NewReader(body))
	if err != nil {
		return reqResult{key: k, body: []byte(err.Error())}
	}
	rw := httptest.NewRecorder()
	res := reqResult{key: k, start: w.rec.now()}
	w.srv.Handler().ServeHTTP(rw, req)
	res.end = w.rec.now()
	res.code, res.body = rw.Code, rw.Body.Bytes()
	return res
}

// prepare draws the session's arrivals and keys from the seed and simulates
// every key it touches directly, outside the measured phase.
func (w *serveWorkload) prepare(d time.Duration) error {
	rng := rand.New(rand.NewSource(w.seed))
	sess := &session{due: arrivals(rng, serveRate, d), runKeys: map[int]string{}}
	zipf := rand.NewZipf(rng, zipfS, 1, serveKeys-1)
	sess.keys = make([]int, len(sess.due))
	m := config.Default()
	var uniq []int
	for i := range sess.keys {
		k := int(zipf.Uint64())
		sess.keys[i] = k
		if _, ok := sess.runKeys[k]; !ok {
			r, err := runFor(k)
			if err != nil {
				return err
			}
			sess.runKeys[k] = runKey(m, r)
			uniq = append(uniq, k)
		}
	}
	w.sess = sess
	return w.expect(uniq)
}

// run plays the session prepare drew; its length was fixed there.
func (w *serveWorkload) run(time.Duration) (*outcome, error) {
	out := &outcome{workers: w.workers, layer: map[string]float64{}}
	due, keys, runKeys := w.sess.due, w.sess.keys, w.sess.runKeys
	before := w.rn.Progress().Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make([]reqResult, len(due))
	var wg sync.WaitGroup
	cal := startTrack(w.rec)
	start := time.Now().Add(10 * time.Millisecond)
	late := dispatch(wallClock{}, start, due, func(i int, at time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := w.post(ctx, keys[i])
			res.latency = time.Since(at)
			results[i] = res
			w.rec.span(span{Name: "serve.request", Key: runKeys[keys[i]], Start: res.start, End: res.end, OK: res.code == http.StatusOK})
		}()
		// The dispatcher is about to block in nanosleep holding its P; yield
		// so that the request starts now, not when the runtime next retakes
		// the P while the other one is busy simulating.
		runtime.Gosched()
	})
	settled := make(chan struct{})
	go func() { wg.Wait(); close(settled) }()
	select {
	case <-settled:
	case <-time.After(serveGrace):
		cancel() // the backlog did not settle: what is still open fails
		<-settled
	}
	out.wall = time.Since(start).Seconds()
	cal.halt()
	after := w.rn.Progress().Snapshot()
	w.rec.stamp(0, cal.near)
	out.verify = func() { w.analyse(out, results, late, before, after, cal) }
	return out, nil
}

// analyse checks a session's responses and derives its metrics; bench runs
// it after the measured phase. op_ms and miss_ms are medians of latencies
// calibrated by the track sampled during the session; the per-layer
// latencies are host time.
func (w *serveWorkload) analyse(out *outcome, results []reqResult, late []time.Duration, before, after metrics.ProgressSnapshot, cal *track) {
	w.check(out, results)
	lat := map[string][]float64{}
	var calOps, calMisses []float64
	rejected := 0
	for _, r := range results {
		if r.code == http.StatusTooManyRequests {
			rejected++
		}
		if r.code == http.StatusOK {
			lat[r.source] = append(lat[r.source], ms(r.latency))
			out.ops = append(out.ops, ms(r.latency))
			c := calibrated(ms(r.latency), cal.near(r.start))
			calOps = append(calOps, c)
			if r.source == runner.SourceSimulated {
				calMisses = append(calMisses, c)
			}
		}
	}
	misses := lat[runner.SourceSimulated]
	out.opMS, out.missMS = median(calOps), median(calMisses)
	lateMS := make([]float64, len(late))
	for i, l := range late {
		lateMS[i] = ms(l)
	}
	L := out.layer
	L["serve.mem_hits"] = float64(len(lat[runner.SourceMemory]))
	L["serve.disk_hits"] = float64(len(lat[runner.SourceDisk]))
	L["serve.misses"] = float64(len(misses))
	L["serve.mem_hit_p50_ms"] = pct(lat[runner.SourceMemory], 50)
	L["serve.mem_hit_p99_ms"] = pct(lat[runner.SourceMemory], 99)
	L["serve.disk_hit_p50_ms"] = pct(lat[runner.SourceDisk], 50)
	L["serve.miss_p50_ms"] = pct(misses, 50)
	L["serve.miss_p90_ms"] = pct(misses, 90)
	L["serve.rejected_frac"] = ratio(float64(rejected), float64(len(results)))
	L["loadgen.late_ms_p99"] = pct(lateMS, 99)
	L["runner.submitted"] = float64(after.Submitted - before.Submitted)
	L["runner.simulated"] = float64(after.Completed - before.Completed)
	L["runner.dedup_frac"] = 1 - ratio(L["runner.simulated"], L["runner.submitted"])
	w.spanMetrics(L, float64(after.MemoHits-before.MemoHits))
}

// check verifies every response: status 200, a report byte-identical to a
// direct sim.Simulate of its key, and a source tag its key's history
// allows.
func (w *serveWorkload) check(out *outcome, results []reqResult) {
	byKey := map[int][]int{}
	for i, r := range results {
		byKey[r.key] = append(byKey[r.key], i)
	}
	out.attempted = len(results)
	for i := range results {
		r := &results[i]
		if r.code != http.StatusOK {
			out.fail("request %d (key %d): status %d: %.200s", i, r.key, r.code, r.body)
			continue
		}
		var got struct{ Source string }
		if err := json.Unmarshal(r.body, &got); err != nil {
			out.fail("request %d: %v", i, err)
			continue
		}
		r.source = got.Source
		want, _ := json.Marshal(serve.RunResponse{Source: got.Source, Report: w.expected[r.key]})
		if !bytes.Equal(r.body, want) {
			out.fail("request %d (key %d): report differs from a direct simulation", i, r.key)
			continue
		}
		if !sourceAllowed(r.source, r.key, i, results, byKey[r.key]) {
			out.fail("request %d (key %d): source %q not possible for this key's history", i, r.key, r.source)
		}
	}
}

// sourceAllowed is the class check. A stored key is never simulated; a
// key is simulated only before any other request for it has finished; a
// memory answer needs the key warmed or another request for it already
// begun; a disk answer needs the key stored or another request for it
// already finished (and so put).
func sourceAllowed(source string, key, i int, results []reqResult, same []int) bool {
	stored, warm := key < serveStored, key < serveMemCap
	var begunBefore, doneBefore bool
	for _, j := range same {
		if j == i {
			continue
		}
		if results[j].start < results[i].end {
			begunBefore = true
		}
		if results[j].end <= results[i].start {
			doneBefore = true
		}
	}
	switch source {
	case runner.SourceSimulated:
		return !stored && !doneBefore
	case runner.SourceMemory:
		return warm || begunBefore
	case runner.SourceDisk:
		return stored || doneBefore
	}
	return false
}

// spanMetrics derives the serve, runner-cache and store numbers of a
// traced session from its spans.
func (w *serveWorkload) spanMetrics(L map[string]float64, memoHits float64) {
	spans, _ := w.rec.snapshot()
	children := map[string][]span{}
	var memGets, memHits, storeGets, storeHits float64
	var memGetUS, storeGetUS, storePutMS []float64
	for _, s := range spans {
		switch s.Name {
		case "runner.mem_get":
			memGets++
			if s.OK {
				memHits++
			}
			memGetUS = append(memGetUS, float64(s.dur())/1e3)
		case "store.get":
			storeGets++
			if s.OK {
				storeHits++
			}
			storeGetUS = append(storeGetUS, float64(s.dur())/1e3)
		case "store.put":
			storePutMS = append(storePutMS, float64(s.dur())/1e6)
		}
		if s.Name != "serve.request" {
			children[s.Key] = append(children[s.Key], s)
		}
	}
	var selfUS []float64
	for _, s := range byName(spans, "serve.request") {
		selfUS = append(selfUS, float64(selfTime(s, children[s.Key]))/1e3)
	}
	L["serve.self_us_p50"] = pct(selfUS, 50)
	L["runner.mem_get_us_p50"] = pct(memGetUS, 50)
	L["runner.mem_hit_frac"] = ratio(memHits, memGets)
	L["runner.coalesced"] = memoHits - memHits
	L["store.get_us_p50"] = pct(storeGetUS, 50)
	L["store.get_us_p99"] = pct(storeGetUS, 99)
	L["store.hit_frac"] = ratio(storeHits, storeGets)
	L["store.put_ms_p50"] = pct(storePutMS, 50)
	L["store.put_ms_p90"] = pct(storePutMS, 90)
}
