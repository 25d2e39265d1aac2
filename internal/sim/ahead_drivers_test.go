package sim_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

// TestAheadDriverGoldens runs every figure driver the way the experiments
// package's TestDriverGoldens does (20k instructions, seed 1, a fresh
// runner) with every quota drawn on a producer and with none, and checks
// both against that test's goldens: the CSV and the Reports JSON digests.
func TestAheadDriverGoldens(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "experiments", "testdata", "drivers.golden"))
	if err != nil {
		t.Fatal(err)
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
	for _, am := range sim.AheadModes {
		t.Run(am.Name, func(t *testing.T) {
			sim.ForceAhead(am.Mode)
			t.Cleanup(func() { sim.ForceAhead(0) })
			for _, id := range experiments.IDs() {
				w, ok := want[id]
				if !ok {
					t.Fatalf("no driver golden for %s", id)
				}
				res, err := experiments.Run(context.Background(), id, experiments.Options{
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
				if got := hex.EncodeToString(c[:]); got != w[0] {
					t.Errorf("%s: CSV digest %s, golden %s", id, got, w[0])
				}
				if got := hex.EncodeToString(r[:]); got != w[1] {
					t.Errorf("%s: Reports digest %s, golden %s", id, got, w[1])
				}
			}
		})
	}
}
