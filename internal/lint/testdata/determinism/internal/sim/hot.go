// Package sim is a determinism-pass fixture: it sits on the hot path
// (internal/sim) and commits every sin the pass exists to catch.
package sim

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// Stamp reads the wall clock on the hot path.
func Stamp() int64 {
	return time.Now().UnixNano() // want: time.Now
}

// Roll draws from the global math/rand source.
func Roll() int {
	return rand.Intn(6) // want: global rand
}

// SeededRoll is fine: it draws from an explicitly seeded *rand.Rand.
func SeededRoll(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(6)
}

// Collect accumulates in map-iteration order three different ways.
func Collect(m map[string]int) []string {
	var out []string
	var csv string
	for k := range m {
		out = append(out, k)       // want: append under map range
		csv += k + ","             // want: string accumulation under map range
		fmt.Fprintln(os.Stderr, k) // want: ordered write under map range
	}
	return out
}

// CollectSlice is fine: slices iterate in index order.
func CollectSlice(s []string) []string {
	var out []string
	for _, v := range s {
		out = append(out, v)
	}
	return out
}
