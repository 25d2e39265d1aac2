package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

// pct returns the nearest-rank p-th percentile of xs, or 0 when fewer than
// minBeyond samples lie beyond it and it may not be reported.
func pct(xs []float64, p float64) float64 {
	n := len(xs)
	rank := max(1, int(math.Ceil(p/100*float64(n))))
	if n-rank < minBeyond {
		return 0
	}
	return sorted(xs)[rank-1]
}

// median is the plain median (mean of the middle pair for even counts),
// used for the few long operations a run repeats, where the ten-beyond
// rule cannot hold.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// runCosts groups simulations that repeat the same work, told apart by
// their reports, and returns the instructions of one run per group and each
// group's median run time in calibrated ms (calib.go), in first-seen order.
func runCosts(sims []simRec) (instr float64, costMS []float64) {
	group := map[string]int{}
	var times [][]float64
	for _, s := range sims {
		key := digest(s.rep)
		i, ok := group[key]
		if !ok {
			i = len(times)
			group[key] = i
			times = append(times, nil)
			instr += float64(s.rep.Instructions)
		}
		times[i] = append(times[i], s.calMS())
	}
	for _, ts := range times {
		costMS = append(costMS, median(ts))
	}
	return instr, costMS
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
