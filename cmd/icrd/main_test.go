package main

import (
	"strings"
	"testing"
)

// TestRunFlagsNotRegistered: requests carry their own budget, seed, and
// run options, so icrd rejects those flags at parsing rather than
// accepting and ignoring them.
func TestRunFlagsNotRegistered(t *testing.T) {
	for _, args := range [][]string{
		{"-adapt", "decay"}, {"-twotier", "ecc"}, {"-sample", "on"},
		{"-instructions", "5000"}, {"-seed", "2"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("icrd %v: err = %v, want an undefined-flag error", args, err)
		}
	}
}
