package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // 0: refused
	}{
		{999, 99, 0}, // p99 is refused under 1000 samples
		{1000, 99, 990},
		{19, 50, 0},
		{20, 50, 10},
		{100, 90, 90},
		{99, 90, 0},
		{0, 50, 0},
	}
	for _, c := range cases {
		if got := pct(seq(c.n), c.p); got != c.want {
			t.Errorf("pct(n=%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestRunCosts(t *testing.T) {
	a := &metrics.Report{Instructions: 1000, Cycles: 700}
	b := &metrics.Report{Instructions: 3000, Cycles: 2500}
	a2 := *a // the same work, reported by another call
	run := func(rep *metrics.Report, ms int64, cal float64) simRec {
		return simRec{rep: rep, start: 0, end: ms * 1e6, cal: cal}
	}
	slow := 2 * calibNominalMS // a spell that doubles the kernel's time
	sims := []simRec{
		run(a, 12, 0), run(b, 60, slow), run(&a2, 10, 0), // uncalibrated runs keep host ms
		run(b, 40, calibNominalMS), run(a, 11, 0), run(b, 64, slow),
	}
	instr, cost := runCosts(sims)
	if instr != 4000 {
		t.Errorf("instructions = %v, want 4000 (one run per group)", instr)
	}
	// b: 30, 40 and 32 calibrated ms.
	if want := []float64{11, 32}; !reflect.DeepEqual(cost, want) {
		t.Errorf("costs = %v, want %v", cost, want)
	}
}

func TestTrackNear(t *testing.T) {
	s := int64(time.Second)
	tr := &track{at: []int64{0, s / 2, s, 3 * s}, cal: []float64{1, 4, 2, 9}}
	if got := tr.near(s / 2); got != 2 { // the first three samples
		t.Errorf("near(0.5s) = %v, want 2", got)
	}
	if got := tr.near(10 * s); got != 0 {
		t.Errorf("near with no sample in reach = %v, want 0", got)
	}
	if got := calibrated(8, tr.near(10*s)); got != 8 {
		t.Errorf("uncalibrated time changed to %v", got)
	}
}

func TestArrivalsAreSeededPoisson(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(7)), 400, 10*time.Second)
	b := arrivals(rand.New(rand.NewSource(7)), 400, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if n := len(a); n < 3800 || n > 4200 {
		t.Errorf("%d arrivals in 10s at 400/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or range", i, a[i])
		}
	}
}

// fakeClock advances only when slept on or when the test moves it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestDispatchIsOpenLoop(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	var fired []time.Time
	late := dispatch(c, start, due, func(i int, at time.Time) {
		fired = append(fired, at)
		if i == 1 {
			// The dispatcher stalls 25ms after the second request.
			c.now = c.now.Add(25 * time.Millisecond)
		}
	})
	want := []time.Duration{0, 0, 15 * time.Millisecond, 5 * time.Millisecond}
	if !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
	// Requests are timed from their due time, not from when they fired.
	for i, at := range fired {
		if at != start.Add(due[i]) {
			t.Errorf("request %d due at %v, want %v", i, at, start.Add(due[i]))
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130},
		{Start: 120, End: 140}, // overlaps the first: counted once
		{Start: 190, End: 250}, // clipped at the parent's end
		{Start: 10, End: 20},   // outside the parent
	}
	if got := selfTime(parent, children); got != 100-30-10 {
		t.Errorf("selfTime = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestSourceAllowed(t *testing.T) {
	fresh := serveStored + 5
	rs := []reqResult{
		{key: fresh, start: 0, end: 10},  // first: simulates
		{key: fresh, start: 5, end: 10},  // overlaps it: coalesced
		{key: fresh, start: 20, end: 30}, // after it: memory or disk
	}
	same := []int{0, 1, 2}
	check := func(src string, i int, want bool) {
		t.Helper()
		if got := sourceAllowed(src, fresh, i, rs, same); got != want {
			t.Errorf("request %d %s: allowed=%v, want %v", i, src, got, want)
		}
	}
	check("simulated", 0, true)
	check("disk", 0, false)
	check("memory", 1, true)
	check("simulated", 2, false)
	check("memory", 2, true)
	check("disk", 2, true)
	if sourceAllowed("simulated", 3, 0, rs[:1], []int{0}) {
		t.Error("a stored key must never simulate")
	}
}

func TestBucketing(t *testing.T) {
	samples := []sample{
		{weight: 20, stack: []string{"repro/internal/core.(*Cache).Load", "repro/internal/cpu.(*Core).Run"}},
		{weight: 20, stack: []string{"repro/internal/workload.(*Generator).NextWarm", "repro/internal/cpu.(*Core).RunWarming"}},
		{weight: 10, stack: []string{"runtime.mallocgc", "repro/internal/sim.newInstance"}},
		{weight: 10, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{weight: 10, stack: []string{"encoding/json.Marshal", "repro/internal/serve.writeJSON"}},
		{weight: 10, stack: []string{"repro/internal/store.(*Store).Get"}},
		{weight: 10, stack: []string{"math.archExp", "math/rand.(*Zipf).Uint64", "repro/internal/workload.(*region).next"}},
		{weight: 10, stack: []string{"internal/runtime/maps.h2", "repro/internal/core.(*Cache).Load"}},
	}
	sh := shares(samples)
	want := map[string]float64{"core": 0.2, "workload": 0.3, "runtime": 0.2, "runtime.gc": 0.1, "residual": 0.2}
	total := 0.0
	for k, v := range sh {
		total += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, v, want[k])
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %v", total)
	}
	if got := underFrame(samples, "repro/internal/cpu.(*Core).RunWarming"); got != 0.2 {
		t.Errorf("warming share = %v", got)
	}
	for fn, pkg := range map[string]string{
		"repro/internal/cpu.(*Core).Run": "repro/internal/cpu",
		"runtime.mallocgc":               "runtime",
		"net/http.(*conn).serve":         "net/http",
		"main.main":                      "main",
	} {
		if got := packageOf(fn); got != pkg {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, pkg)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	if underFrame(samples, "repro/perf.spin") < 0.5 {
		t.Errorf("spin holds %.2f of the profile, want most of it", underFrame(samples, "repro/perf.spin"))
	}
	if got := withoutKernel(append(samples, sample{weight: 1, stack: []string{"repro/perf.kernel"}})); len(got) != len(samples) {
		t.Errorf("withoutKernel kept %d of %d program samples plus a kernel one", len(got), len(samples))
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) || !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from endToEnd/perLayer")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
}

// TestExactIPCReference regenerates one stored exact-IPC entry.
func TestExactIPCReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 8M-instruction exact simulation")
	}
	if err := json.Unmarshal(refJSON, &ref); err != nil {
		t.Fatal(err)
	}
	nr := sampledMatrix(0)[0]
	got, err := exactIPC(nr.run)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("0/%s", nr.label)
	if want := ref.ExactIPC[key]; got != want {
		t.Errorf("exact IPC of %s = %v, stored %v", key, got, want)
	}
}
