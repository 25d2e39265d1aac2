// Package core is a determinism-pass fixture for the dL1 model: it is in
// internal/sim's import closure, so a wall-clock read here is as fatal to
// reproducibility as one in internal/sim.
package core

import "time"

// Age stamps a line with the wall clock instead of the cycle count.
func Age() int64 {
	return time.Now().UnixNano() // want: time.Now
}
