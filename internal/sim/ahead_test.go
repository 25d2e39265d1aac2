package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/workload"
)

// aheadMode is a setting of the pipelining gate the identity tests force.
type aheadMode struct {
	Name string
	Mode int32
}

// aheadModes are the settings the identity tests run under: every quota
// drawn on a producer, and none. The race detector runs only the first;
// the inline path is the one the rest of the suite takes under the gate.
var aheadModes = func() []aheadMode {
	if raceDetectorEnabled {
		return []aheadMode{{"on", 1}}
	}
	return []aheadMode{{"on", 1}, {"off", -1}}
}()

// forceAheadMode sets the gate override for the rest of the test.
func forceAheadMode(t *testing.T, mode int32) {
	forceAhead.Store(mode)
	t.Cleanup(func() { forceAhead.Store(0) })
}

// TestAheadEquivalenceGoldens runs every equivalence pin with every quota
// drawn on a producer and with none: both must match the goldens byte for
// byte. The forced-on path draws even the sampled runs' 400- and
// 1000-instruction windows ahead, so warming follows pipelined windows.
func TestAheadEquivalenceGoldens(t *testing.T) {
	for _, am := range aheadModes {
		t.Run(am.Name, func(t *testing.T) {
			forceAheadMode(t, am.Mode)
			for _, er := range equivalenceRuns() {
				t.Run(er.name, func(t *testing.T) { checkEquivalence(t, er, false) })
			}
		})
	}
}

// hashInst feeds every field of in to h in the layout of the workload
// package's stream goldens.
func hashInst(h interface{ Write([]byte) (int, error) }, in *isa.Inst) {
	var b [31]byte
	binary.LittleEndian.PutUint64(b[0:], in.PC)
	b[8] = byte(in.Op)
	binary.LittleEndian.PutUint16(b[9:], in.SrcDist1)
	binary.LittleEndian.PutUint16(b[11:], in.SrcDist2)
	binary.LittleEndian.PutUint64(b[13:], in.Addr)
	b[21] = in.Size
	if in.Taken {
		b[22] = 1
	}
	binary.LittleEndian.PutUint64(b[23:], in.Target)
	h.Write(b[:])
}

// TestAheadStreamGoldens pulls the workload package's stream goldens
// through an aheadStream the way a sampled run does: per 50k unit, a
// quota of 48,600 warming instructions in FillWarm batches of 256, then a
// quota of 1,400 detailed ones in Fill batches of 64. With the gate
// forced on, each stretch of either kind is drawn on a producer; forced
// off, inline. Both must reproduce every digest.
func TestAheadStreamGoldens(t *testing.T) {
	const (
		budget = 300_000
		period = 50_000
		detail = 1_400
	)
	f, err := os.Open(filepath.Join("..", "workload", "testdata", "streams.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			want[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	profiles := append(workload.Profiles(), workload.PhaseProfiles()...)
	if len(want) != 2*len(profiles) {
		t.Fatalf("%d stream goldens for %d profiles × 2 seeds", len(want), len(profiles))
	}
	for _, am := range aheadModes {
		t.Run(am.Name, func(t *testing.T) {
			forceAheadMode(t, am.Mode)
			for _, p := range profiles {
				for _, seed := range []int64{1, 2} {
					key := fmt.Sprintf("%s/seed%d", p.Name, seed)
					a := &aheadStream{src: workload.MustNew(p, seed)}
					h := sha256.New()
					buf := make([]isa.Inst, 256)
					pull := func(fill func([]isa.Inst) int, n, batch int) {
						for n > 0 {
							b := buf[:min(n, batch)]
							if got := fill(b); got != len(b) {
								t.Fatalf("%s: filled %d of %d", key, got, len(b))
							}
							for i := range b {
								hashInst(h, &b[i])
							}
							n -= len(b)
						}
					}
					quota := func(n int, warm bool) {
						a.Quota(uint64(n), warm)
						if a.producing != (am.Mode == 1) {
							t.Fatalf("%s: producing %v after a quota (warming %v) with the gate forced %s", key, a.producing, warm, am.Name)
						}
					}
					for done := 0; done < budget; done += period {
						quota(period-detail, true)
						pull(a.FillWarm, period-detail, 256)
						quota(detail, false)
						pull(a.Fill, detail, 64)
					}
					a.close()
					if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
						t.Errorf("%s: stream digest %s, golden %s", key, got, want[key])
					}
				}
			}
		})
	}
}

// endingStream is a generator that ends after limit instructions and can
// run a callback once after its first `at` draws, detailed or warming;
// atWarm records whether the draw that reached `at` was a warming one.
// Its fills may be called on a producer goroutine; maxBusy records the
// most simulations and producers that were running during a fill, 2 when
// a producer drew.
type endingStream struct {
	g       *workload.Generator
	limit   uint64
	at      uint64
	onDraws func()
	drawn   atomic.Uint64
	atWarm  bool
	maxBusy int32
}

func (s *endingStream) Fill(buf []isa.Inst) int     { return s.draw(buf, false) }
func (s *endingStream) FillWarm(buf []isa.Inst) int { return s.draw(buf, true) }

func (s *endingStream) draw(buf []isa.Inst, warm bool) int {
	s.maxBusy = max(s.maxBusy, busy.Load())
	n := len(buf)
	if left := s.limit - s.g.Count(); uint64(n) > left {
		n = int(left)
	}
	if warm {
		s.g.FillWarm(buf[:n])
	} else {
		s.g.Fill(buf[:n])
	}
	before := s.drawn.Add(uint64(n)) - uint64(n)
	if before < s.at && before+uint64(n) >= s.at {
		s.atWarm = warm
		if s.onDraws != nil {
			s.onDraws()
		}
	}
	return n
}

// idleRings returns the length of the ring free list.
func idleRings() int {
	rings.mu.Lock()
	defer rings.mu.Unlock()
	return len(rings.idle)
}

// TestAheadLifecycle checks that no producer outlives simulate: after a
// completed run, a run cancelled through its context in the middle of its
// quota, and a run whose stream ends inside its quota, exact or sampled
// with the quota a warming one, the goroutine count returns to its
// baseline, the ring is back on the free list and the busy count is 0.
func TestAheadLifecycle(t *testing.T) {
	forceAheadMode(t, 1)
	const instrs = 40_000
	m := config.Default()
	r := config.NewRun("gzip", core.BaseP())
	r.Instructions = instrs
	r.Fault = config.FaultConfig{Model: fault.Random, Prob: 1e-4, Seed: 1}
	r.Energy = energy.DefaultParams()
	profile, err := workload.ByName(r.Benchmark)
	if err != nil {
		t.Fatal(err)
	}

	// A sampled run's first warming quota is draws [0, 8600) and its
	// second [10000, 18600).
	sampled := r
	sampled.Sample = config.SampleConfig{Period: 10_000}
	// cancelled cancels r's context at its 5,000th draw, a draw of the
	// kind warm says. The draw returns only once the run's halt flag is
	// set, so the run stops there however late the host schedules the
	// context's watcher.
	cancelled := func(r config.Run, warm bool) func(*testing.T, *endingStream) {
		return func(t *testing.T, s *endingStream) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			halted := make(chan struct{})
			haltSet = func() { close(halted) }
			defer func() { haltSet = nil }()
			s.limit, s.at = 1<<62, 5_000
			s.onDraws = func() {
				cancel()
				<-halted
			}
			if _, err := newInstance(m, r).simulate(ctx, m, r, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("err %v, want context.Canceled", err)
			}
			if d := s.drawn.Load(); d >= r.Instructions {
				t.Fatalf("the producer drew %d instructions, the whole run of %d", d, r.Instructions)
			}
			if s.atWarm != warm {
				t.Fatalf("cancelled at a draw with warming %v, want %v", s.atWarm, warm)
			}
		}
	}
	// ends ends r's stream at its 12,345th draw, a draw of the kind warm
	// says.
	ends := func(r config.Run, warm bool) func(*testing.T, *endingStream) {
		return func(t *testing.T, s *endingStream) {
			s.limit, s.at = 12_345, 12_345
			_, err := newInstance(m, r).simulate(context.Background(), m, r, s)
			if err == nil || !strings.Contains(err.Error(), "stream ended") {
				t.Fatalf("err %v, want the stream to end", err)
			}
			if s.atWarm != warm {
				t.Fatalf("the stream ended at a draw with warming %v, want %v", s.atWarm, warm)
			}
		}
	}
	for _, tc := range []struct {
		name string
		// run simulates with the given stream and checks its outcome.
		run func(t *testing.T, s *endingStream)
	}{
		{"completed", func(t *testing.T, s *endingStream) {
			s.limit = 1 << 62
			if _, err := newInstance(m, r).simulate(context.Background(), m, r, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancelled", cancelled(r, false)},
		{"stream ends", ends(r, false)},
		{"sampled cancelled in warming", cancelled(sampled, true)},
		{"sampled stream ends in warming", ends(sampled, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idle := max(idleRings(), 1)
			baseline := runtime.NumGoroutine()
			s := &endingStream{g: workload.MustNew(profile, r.Seed)}
			tc.run(t, s)
			if s.maxBusy != 2 {
				t.Errorf("at most %d simulations and producers ran during a fill, want 2: the run's own and its producer's", s.maxBusy)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("%d goroutines after simulate returned, %d before", n, baseline)
			}
			if got := idleRings(); got != idle {
				t.Errorf("%d rings on the free list after simulate returned, want %d", got, idle)
			}
			if n := busy.Load(); n != 0 {
				t.Errorf("busy count %d after simulate returned, want 0", n)
			}
		})
	}
}
