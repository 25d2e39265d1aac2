package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.golden from the current program")

// TestOutput runs the quickstart and requires its output byte for byte, so
// the program the README points to cannot start printing something else
// unnoticed. Regenerate with -update only for a deliberate model change.
func TestOutput(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "output.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("quickstart output changed\n--- got ---\n%s--- want ---\n%s", out.String(), want)
	}
}
