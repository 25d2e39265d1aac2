package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
)

// The driver goldens pin every registered driver's output at a small
// budget: the SHA-256 of its CSV and of its ordered Reports as JSON. A
// refactor of the drivers must leave both digests unchanged; a change to a
// figure's runs, its series arithmetic or its report order moves one.
// Regenerate only for a deliberate change to a figure:
//
//	go test ./internal/experiments -run TestDriverGoldens -update-drivers
var updateDrivers = flag.Bool("update-drivers", false,
	"rewrite the driver goldens from the current drivers")

var driverGoldenPath = filepath.Join("testdata", "drivers.golden")

// driverDigests runs id at 20k instructions, seed 1, through a fresh
// runner and returns the digests of its CSV and its Reports JSON.
func driverDigests(t *testing.T, id string) (csv, reports string) {
	res, err := Run(context.Background(), id, Options{
		Instructions: 20_000,
		Seed:         1,
		Runner:       runner.New(runner.Options{}),
	})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	js, err := json.Marshal(res.Reports)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	c, r := sha256.Sum256([]byte(res.CSV())), sha256.Sum256(js)
	return hex.EncodeToString(c[:]), hex.EncodeToString(r[:])
}

func TestDriverGoldens(t *testing.T) {
	if *updateDrivers {
		var sb strings.Builder
		for _, id := range IDs() {
			csv, reports := driverDigests(t, id)
			fmt.Fprintf(&sb, "%s %s %s\n", id, csv, reports)
		}
		if err := os.MkdirAll(filepath.Dir(driverGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(driverGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(driverGoldenPath)
	if err != nil {
		t.Fatalf("missing driver goldens (run with -update-drivers): %v", err)
	}
	defer f.Close()
	want := map[string][2]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 {
			want[fields[0]] = [2]string{fields[1], fields[2]}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			w, ok := want[id]
			if !ok {
				t.Fatalf("no golden for %s (run with -update-drivers)", id)
			}
			csv, reports := driverDigests(t, id)
			if csv != w[0] {
				t.Errorf("CSV digest %s, golden %s", csv, w[0])
			}
			if reports != w[1] {
				t.Errorf("Reports digest %s, golden %s", reports, w[1])
			}
		})
	}
}
