package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark's wrappers around the program's public functions and seams.
// Times are nanoseconds since the recorder's epoch. Spans of one request
// share its Key, runner.KeyFor of the request's run.
type span struct {
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	OK    bool   `json:"ok"` // the call succeeded (for lookups: it hit)
}

func (s span) dur() int64 { return s.End - s.Start }

// simRec is one sim.SimulateContext call seen by the recorder.
type simRec struct {
	run        config.Run
	rep        *metrics.Report
	start, end int64
	cal        float64 // ms: the calibration in force when it ran, or 0
}

func (s simRec) seconds() float64 { return float64(s.end-s.start) / 1e9 }

// calMS is the run's time in calibrated ms (calib.go).
func (s simRec) calMS() float64 { return calibrated(s.seconds()*1e3, s.cal) }

// recorder collects the run's simulations always, and spans only when
// tracing. Everything stays in memory until the run ends.
type recorder struct {
	epoch  time.Time
	traced bool

	mu    sync.Mutex
	spans []span
	sims  []simRec
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) span(s span) {
	if !r.traced {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// simulate is sim.SimulateContext, timed. It is the function handed to
// runner.Options.Simulate and called directly by the sim workloads.
func (r *recorder) simulate(ctx context.Context, m config.Machine, run config.Run) (*metrics.Report, error) {
	start := r.now()
	rep, err := sim.SimulateContext(ctx, m, run)
	end := r.now()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.sims = append(r.sims, simRec{run: run, rep: rep, start: start, end: end})
	r.mu.Unlock()
	if r.traced {
		r.span(span{Name: "sim.run", Key: runKey(m, run), Start: start, End: end, OK: true})
	}
	return rep, nil
}

// bracket runs op between two calibrations on n goroutines (calib.go),
// stamps their mean on the simulations op records and returns it.
func (r *recorder) bracket(n int, op func()) float64 {
	r.mu.Lock()
	from := len(r.sims)
	r.mu.Unlock()
	before := calibrate(n)
	op()
	cal := (before + calibrate(n)) / 2
	r.stamp(from, func(int64) float64 { return cal })
	return cal
}

// stamp sets the calibration of the simulations recorded from the from-th
// on to cal of their start time.
func (r *recorder) stamp(from int, cal func(start int64) float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := from; i < len(r.sims); i++ {
		r.sims[i].cal = cal(r.sims[i].start)
	}
}

// reset drops everything recorded so far and returns the simulations.
func (r *recorder) reset() []simRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	sims := r.sims
	r.sims, r.spans = nil, nil
	return sims
}

func (r *recorder) snapshot() ([]span, []simRec) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]simRec(nil), r.sims...)
}

// write stores the spans as a JSON array.
func (r *recorder) write(path string) error {
	spans, _ := r.snapshot()
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func runKey(m config.Machine, run config.Run) string {
	k, ok := runner.KeyFor(m, run)
	if !ok {
		return ""
	}
	return k.String()
}

// tracedCache wraps the runner's memory cache, recording a span per call.
type tracedCache struct {
	inner runner.Cache
	rec   *recorder
}

func (c tracedCache) Get(ctx context.Context, key runner.Key) (*metrics.Report, string, error) {
	start := c.rec.now()
	rep, tier, err := c.inner.Get(ctx, key)
	c.rec.span(span{Name: "runner.mem_get", Key: key.String(), Start: start, End: c.rec.now(), OK: err == nil})
	return rep, tier, err
}

func (c tracedCache) Put(ctx context.Context, key runner.Key, rep *metrics.Report) error {
	start := c.rec.now()
	err := c.inner.Put(ctx, key, rep)
	c.rec.span(span{Name: "runner.mem_put", Key: key.String(), Start: start, End: c.rec.now(), OK: err == nil})
	return err
}

// tracedBackend wraps a store.Backend, recording a span per Get and Put.
type tracedBackend struct {
	store.Backend
	rec *recorder
}

func (b tracedBackend) Get(ctx context.Context, key string) (*metrics.Report, error) {
	start := b.rec.now()
	rep, err := b.Backend.Get(ctx, key)
	b.rec.span(span{Name: "store.get", Key: key, Start: start, End: b.rec.now(), OK: err == nil})
	return rep, err
}

func (b tracedBackend) Put(ctx context.Context, key string, rep *metrics.Report) error {
	start := b.rec.now()
	err := b.Backend.Put(ctx, key, rep)
	b.rec.span(span{Name: "store.put", Key: key, Start: start, End: b.rec.now(), OK: err == nil})
	return err
}

// covered returns how much of [from, to) the spans cover, counting
// overlapping spans once.
func covered(spans []span, from, to int64) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(spans))
	for _, c := range spans {
		s, e := max(c.Start, from), min(c.End, to)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, curS, curE int64
	for i, v := range ivs {
		if i == 0 || v.s > curE {
			total += curE - curS
			curS, curE = v.s, v.e
			continue
		}
		curE = max(curE, v.e)
	}
	return total + curE - curS
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(children, parent.Start, parent.End)
}

// byName selects spans with the given name.
func byName(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
