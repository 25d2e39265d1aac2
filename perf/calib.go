package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark shares its host with other tenants, and they slow it by
// 10–70% in spells that last from seconds to minutes, often longer than a
// run. Both cores slow together, and memory-bound code slows most, so the
// simulator slows much as a fixed loop over a 1 MiB table does. Every
// end-to-end timing is therefore taken next to that calibration kernel and
// reported in calibrated milliseconds: host ms × calibNominalMS / the
// kernel's ms at the time. A spell that slows both by the same factor
// cancels; a change to the program does not, since the kernel is not
// program code. The kernel runs just before and just after each set-up,
// simulation (sim-*) and sweep (sweep-cold), and in the background during
// a serve-zipf session (track). README.md gives the measurements behind
// this.

const (
	calibWords   = 1 << 17 // a 1 MiB table, the size whose slowdown tracked the simulator's best
	calibSteps   = 400_000 // read-modify-writes per repeat, about 1 ms on the reference host
	calibRepeats = 3       // the fastest repeat counts: preemption hits one, contention all
	// calibNominalMS is the kernel's time on the reference host (2-vCPU
	// Intel Xeon guest) in a quiet spell, so that calibrated milliseconds
	// read about as host milliseconds there.
	calibNominalMS = 1.0
)

var calibTables [][]uint64 // one per concurrent kernel, grown on demand

// calibrate runs the calibration kernel on n goroutines at once, each on
// its own table, and returns the mean of their fastest repeats in ms. A
// serial workload calibrates with n = 1, a parallel one with its workers.
func calibrate(n int) float64 {
	for len(calibTables) < n {
		calibTables = append(calibTables, make([]uint64, calibWords))
	}
	times := make([]float64, n)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = kernel(calibTables[i])
		}()
	}
	wg.Wait()
	return sum(times) / float64(n)
}

// kernel times the fastest of calibRepeats walks of table. The walk is a
// fixed xorshift sequence, so every call does the same work.
func kernel(table []uint64) float64 {
	best := 0.0
	for r := 0; r < calibRepeats; r++ {
		start := time.Now()
		x, acc := uint64(88172645463325252), uint64(0)
		for i := 0; i < calibSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (calibWords - 1)
			acc += table[j]
			table[j] = acc
		}
		table[0] ^= acc // keeps the walk's result live
		if t := ms(time.Since(start)); r == 0 || t < best {
			best = t
		}
	}
	return best
}

const (
	trackEvery = 100 * time.Millisecond // between a track's samples
	trackSpan  = int64(time.Second)     // ns: a moment's calibration is the median of the samples this near
)

// track samples the calibration kernel in the background while a long
// operation runs, for operations that cannot stop between their parts to
// calibrate: serve-zipf's session. A sample takes about 3 ms of one core
// every trackEvery, on a host whose cores the session leaves mostly idle.
type track struct {
	rec  *recorder
	stop chan struct{}
	done chan struct{}
	at   []int64 // recorder time of each sample's middle
	cal  []float64
}

func startTrack(rec *recorder) *track {
	t := &track{rec: rec, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(trackEvery)
		defer tick.Stop()
		for {
			start := rec.now()
			c := calibrate(1)
			t.at = append(t.at, (start+rec.now())/2)
			t.cal = append(t.cal, c)
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

// halt stops the sampling and waits for it.
func (t *track) halt() {
	close(t.stop)
	<-t.done
}

// near is the median of the samples within trackSpan of recorder time at,
// or 0 if there are none; call it after halt.
func (t *track) near(at int64) float64 {
	var cs []float64
	for i, a := range t.at {
		if a >= at-trackSpan && a <= at+trackSpan {
			cs = append(cs, t.cal[i])
		}
	}
	return median(cs)
}

// logCalibration writes the kernel's times and the uncalibrated instr_per_s
// of a phase to standard error, for comparison with the calibrated figures.
func logCalibration(sims []simRec) {
	var cals, hostMS []float64
	var instr float64
	for _, s := range sims {
		if s.cal > 0 {
			cals = append(cals, s.cal)
		}
		hostMS = append(hostMS, s.seconds()*1e3)
		instr += float64(s.rep.Instructions)
	}
	if len(cals) > 0 {
		fmt.Fprintf(os.Stderr, "calibration kernel: median %.4f ms, fastest %.4f ms, nominal %.4g ms; host instr_per_s %.6g\n",
			median(cals), sorted(cals)[0], calibNominalMS, ratio(instr, sum(hostMS)/1e3))
	}
}

// calibrated converts host ms measured next to a calibration of calMS into
// calibrated ms; calMS 0 (not calibrated) leaves them as they are.
func calibrated(hostMS, calMS float64) float64 {
	if calMS == 0 {
		return hostMS
	}
	return hostMS * calibNominalMS / calMS
}
