// Command perf is the repository benchmark. One invocation runs one of
// four workloads and prints, as the last line of standard output, a JSON
// object with the run's correctness, operation counts and metrics:
//
//	perf --workload sim-exact|sim-sampled|sweep-cold|serve-zipf \
//	     --seed N --seconds S --trace 0|1
//
// An untraced run prints the end-to-end metrics; a traced run (--trace 1)
// repeats the measurement with spans and a CPU profile and prints the
// per-layer metrics. Every output is checked against reference data or a
// direct simulation; a mismatch makes the run incorrect and the exit
// status 1. README.md explains the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/workload"
)

// reference is the stored expected output of the deterministic workloads.
type reference struct {
	// Digests maps "<workload>/<variant>/<run label>" to the digest of a
	// report, or of a sweep's CSV or report list.
	Digests map[string]string `json:"digests"`
	// ExactIPC maps "<variant>/<run label>" of the sim-sampled matrix to the
	// IPC of the same run simulated exactly.
	ExactIPC map[string]float64 `json:"exact_ipc"`
	// Distinct maps a variant to the distinct configurations one cold
	// sweep simulates.
	Distinct map[string]int `json:"distinct"`
}

//go:embed data/reference.json
var refJSON []byte

var ref reference

const (
	// setup_s is the median of at least setupRepeats calibrated set-ups
	// (calib.go) spanning at least setupWindow: the host's speed wanders on
	// a scale of seconds, so a few back-to-back short set-ups would follow
	// it.
	setupRepeats = 9
	setupWindow  = 3 * time.Second
	// tracedMin is the shortest traced phase: serve-zipf's memory-hit p99
	// needs the 1000 samples the ten-beyond rule asks for, about 24 s.
	tracedMin = 30 * time.Second
	buildDir  = ".bench_build" // outputs, relative to the working directory
)

var workloadNames = []string{"sim-exact", "sim-sampled", "sweep-cold", "serve-zipf"}

// outcome is what one measured phase of a workload produced.
type outcome struct {
	attempted, failed int
	ops               []float64 // ms: each unit operation (matrix pass, cold sweep, request)
	opMS, missMS      float64   // the phase's op_ms and miss_ms (README.md)
	wall              float64   // s: the phase (sweep-cold: its sweeps, without the checks and calibrations between them)
	workers           int       // simulations that may run at once
	layer             map[string]float64
	// verify, if set, checks the outputs and fills in the metrics; bench
	// calls it after the measured phase, outside the profile.
	verify func()
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perf: FAIL "+format+"\n", args...)
	}
}

type workloadRunner interface {
	// setup builds the inputs and brings the program to steady state; it
	// may run several times, and the last one leaves the state run uses.
	setup() error
	// run measures for about d.
	run(d time.Duration) (*outcome, error)
}

// preparer is a workload whose measured phase needs inputs and expected
// outputs computed beforehand, outside the timing and the profile.
type preparer interface {
	prepare(d time.Duration) error
}

// measure runs one measured phase of about d, then checks its outputs.
// start and stop bracket the phase itself.
func measure(w workloadRunner, d time.Duration, start, stop func() error) (*outcome, error) {
	if p, ok := w.(preparer); ok {
		if err := p.prepare(d); err != nil {
			return nil, err
		}
	}
	if err := start(); err != nil {
		return nil, err
	}
	out, err := w.run(d)
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if out.verify != nil {
		out.verify()
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	name := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per phase")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	regen := fs.String("regen", "", "recompute the reference data into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			return 1
		}
		return 0
	}
	if err := json.Unmarshal(refJSON, &ref); err != nil {
		fmt.Fprintln(os.Stderr, "perf: reference data:", err)
		return 1
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	d := time.Duration(*seconds * float64(time.Second))
	res, err := bench(*name, *seed, d, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	for _, line := range res.summary() {
		fmt.Fprintln(os.Stderr, line)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		return 1
	}
	fmt.Println(string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	defs      []metricDef
}

func newResult(outs []*outcome, defs []metricDef, vals map[string]float64) *result {
	r := &result{Metrics: map[string]value{}, defs: defs}
	for _, o := range outs {
		r.Attempted += o.attempted
		r.Failed += o.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		r.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
	}
	return r
}

func (r *result) summary() []string {
	lines := []string{fmt.Sprintf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)}
	for _, d := range r.defs {
		v := r.Metrics[d.Name]
		lines = append(lines, fmt.Sprintf("  %-32s %14.6g %s", d.Name, v.Value, v.Unit))
	}
	return lines
}

func newWorkload(name string, seed int64, rec *recorder) (workloadRunner, func() error, error) {
	noop := func() error { return nil }
	v := variantOf(seed)
	switch name {
	case "sim-exact", "sim-sampled":
		return newSimWorkload(name, v, rec), noop, nil
	case "sweep-cold":
		return newSweepWorkload(v, rec), noop, nil
	case "serve-zipf":
		w, err := newServeWorkload(seed, rec, filepath.Join(buildDir, "serve"))
		if err != nil {
			return nil, noop, err
		}
		return w, w.close, nil
	}
	return nil, noop, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// bench sets up several times, measures once untraced, and for a traced
// run sets up again and measures once more, for at least tracedMin, with
// spans and a CPU profile.
func bench(name string, seed int64, d time.Duration, traced bool) (res *result, err error) {
	rec := newRecorder()
	w, cleanup, err := newWorkload(name, seed, rec)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	var setups []float64
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < setupWindow; {
		before := calibrate(1)
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		host := ms(time.Since(t))
		setups = append(setups, calibrated(host, (before+calibrate(1))/2)/1e3)
	}
	nop := func() error { return nil }
	base, err := measure(w, d, nop, nop)
	if err != nil {
		return nil, err
	}
	baseSims := rec.reset()
	logCalibration(baseSims)
	if !traced {
		return newResult([]*outcome{base}, endToEnd, endToEndValues(base, baseSims, setups)), nil
	}

	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	out, err := measure(w, max(d, tracedMin), func() error {
		rec.traced = true
		runtime.ReadMemStats(&m0)
		return pprof.StartCPUProfile(&prof)
	}, func() error {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&m1)
		rec.traced = false
		return nil
	})
	if err != nil {
		return nil, err
	}
	spans, sims := rec.snapshot()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	samples = withoutKernel(samples)
	vals := layerValues(out, spans, sims, samples)
	vals["trace.overhead_frac"] = out.opMS/base.opMS - 1
	n := float64(len(sims))
	vals["runtime.allocs_per_run"] = ratio(float64(m1.Mallocs-m0.Mallocs), n)
	vals["runtime.bytes_per_run"] = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), n)
	vals["workload.next_ns_per_instr"], vals["workload.nextwarm_ns_per_instr"], err = replay(sims)
	if err != nil {
		return nil, err
	}
	stem := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d", name, seed))
	if err := rec.write(stem + ".spans.json"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return newResult([]*outcome{base, out}, perLayer, vals), nil
}

func endToEndValues(o *outcome, sims []simRec, setups []float64) map[string]float64 {
	instr, cost := runCosts(sims)
	return map[string]float64{
		"setup_s":     median(setups),
		"ok_frac":     1 - ratio(float64(o.failed), float64(o.attempted)),
		"peak_rss_mb": peakRSSMB(),
		"instr_per_s": ratio(instr, sum(cost)/1e3),
		"op_ms":       o.opMS,
		"miss_ms":     o.missMS,
	}
}

// layerValues derives the per-layer metrics of a traced phase. Report
// counters are summed per operation, so they repeat exactly on the
// deterministic workloads.
func layerValues(o *outcome, spans []span, sims []simRec, samples []sample) map[string]float64 {
	L := map[string]float64{}
	for k, v := range o.layer {
		L[k] = v
	}
	sh := shares(samples)
	for _, l := range layers {
		L[l+".self_frac"] = sh[l]
	}
	L["runtime.self_frac"] = sh["runtime"]
	L["runtime.gc_frac"] = sh["runtime.gc"]
	L["residual_frac"] = sh["residual"]
	L["sim.warming_frac"] = underFrame(samples, "repro/internal/cpu.(*Core).RunWarming")
	L["sim.detailed_frac"] = underFrame(samples, "repro/internal/cpu.(*Core).Run")

	var instr, simNS, dl1, repl, replOK, det, recov, l2, mem, offers, accepted, epochs, windows float64
	var runMS []float64
	for _, s := range sims {
		r := s.rep
		instr += float64(r.Instructions)
		simNS += float64(s.end - s.start)
		runMS = append(runMS, float64(s.end-s.start)/1e6)
		dl1 += float64(r.DL1Reads + r.DL1Writes)
		repl += float64(r.ReplAttempts)
		replOK += float64(r.ReplSuccesses)
		det += float64(r.ErrorsDetected)
		recov += float64(r.RecoveredByECC + r.RecoveredByReplica + r.RecoveredByDuplicate + r.RecoveredByL2)
		l2 += float64(r.L2Accesses)
		mem += float64(r.MemAccesses)
		if r.TwoTier != nil {
			offers += float64(r.TwoTier.CrossOffers)
			accepted += float64(r.TwoTier.CrossAccepted)
		}
		if r.Adaptive != nil {
			epochs += float64(r.Adaptive.Epochs)
		}
		if r.Sampling != nil {
			windows += float64(r.Sampling.Windows)
		}
	}
	ops := float64(len(o.ops))
	L["core.dl1_accesses"] = ratio(dl1, ops)
	L["core.repl_attempts"] = ratio(repl, ops)
	L["core.repl_success_frac"] = ratio(replOK, repl)
	L["core.errors_detected"] = ratio(det, ops)
	L["core.recovered_frac"] = ratio(recov, det)
	L["cache.l2_accesses"] = ratio(l2, ops)
	L["cache.mem_accesses"] = ratio(mem, ops)
	L["tier.cross_accept_frac"] = ratio(accepted, offers)
	L["adapt.epochs"] = ratio(epochs, ops)
	L["sim.windows"] = ratio(windows, ops)
	L["sim.host_ns_per_instr"] = ratio(simNS, instr)
	L["sim.run_ms_p50"] = median(runMS)
	L["sim.run_ms_max"] = maxOf(runMS)

	var cpuNS float64
	for _, s := range samples {
		cpuNS += float64(s.weight)
	}
	L["core.ns_per_dl1_access"] = ratio(sh["core"]*cpuNS, dl1)

	simSpans := byName(spans, "sim.run")
	wallNS := o.wall * 1e9
	busyNS := float64(covered(simSpans, 0, 1<<62))
	L["runner.busy_frac"] = ratio(simNS, wallNS*float64(o.workers))
	L["experiments.idle_s"] = ratio((wallNS-busyNS)/1e9, ops)
	return L
}

// replayCap bounds the instructions one replay generates.
const replayCap = 20_000_000

// replay times Generator.Next and Generator.NextWarm over the instruction
// counts of the traced phase's distinct runs (at most 2M per run).
func replay(sims []simRec) (nextNS, warmNS float64, err error) {
	seen := map[string]bool{}
	var n, tNext, tWarm float64
	for _, s := range sims {
		id := fmt.Sprintf("%s/%d/%d", s.run.Benchmark, s.run.Seed, s.rep.Instructions)
		if seen[id] || n >= replayCap {
			continue
		}
		seen[id] = true
		count := min(s.rep.Instructions, 2_000_000)
		p, err := workload.ByName(s.run.Benchmark)
		if err != nil {
			return 0, 0, err
		}
		for _, warm := range []bool{false, true} {
			g, err := workload.New(p, s.run.Seed)
			if err != nil {
				return 0, 0, err
			}
			t := time.Now()
			if warm {
				for i := uint64(0); i < count; i++ {
					g.NextWarm()
				}
				tWarm += float64(time.Since(t))
			} else {
				for i := uint64(0); i < count; i++ {
					g.Next()
				}
				tNext += float64(time.Since(t))
			}
		}
		n += float64(count)
	}
	return ratio(tNext, n), ratio(tWarm, n), nil
}

// peakRSSMB is the process's peak resident set (VmHWM), or the Go
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
