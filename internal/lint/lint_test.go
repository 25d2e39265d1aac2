package lint

import (
	"flag"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtures are the testdata modules TestGolden runs. They lay their
// packages out on the real module's paths (internal/sim, internal/core,
// cmd/, internal/runner), so every fixture sees the scopes `icrvet` applies
// to the live tree.
var fixtures = []string{
	"determinism",
	"floatorder",
	"droppederr",
	"suppress",
	"resetcoverage",
	"resetnested",
	"allocfree",
	"allochot",
	"ctxflow",
	"ctxsleep",
}

// fixturePass names the pass each single-pass fixture exists to trip, so
// a pass that silently stops firing fails loudly even if the golden is
// regenerated without looking.
var fixturePass = map[string]string{
	"determinism":   "determinism",
	"floatorder":    "floatorder",
	"droppederr":    "droppederr",
	"resetcoverage": "resetcoverage",
	"resetnested":   "resetcoverage",
	"allocfree":     "allocfree",
	"allochot":      "allocfree",
	"ctxflow":       "ctxflow",
	"ctxsleep":      "ctxflow",
}

// analyzeFixture runs all passes over one testdata module and renders the
// findings relative to the fixture root.
func analyzeFixture(t *testing.T, name string) []string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	findings := Run(mod)
	lines := make([]string, len(findings))
	for i, f := range findings {
		lines[i] = f.Relative(root)
	}
	return lines
}

// TestGolden checks each fixture's diagnostics against its golden file,
// and that every fixture produces at least one finding (the fixtures exist
// to prove the passes fire).
func TestGolden(t *testing.T) {
	for _, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			lines := analyzeFixture(t, name)
			if len(lines) == 0 {
				t.Fatalf("fixture %s produced no findings", name)
			}
			if pass := fixturePass[name]; pass != "" {
				found := false
				for _, l := range lines {
					if strings.Contains(l, "["+pass+"]") {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("fixture %s produced no [%s] finding:\n%s", name, pass, strings.Join(lines, "\n"))
				}
			}
			got := strings.Join(lines, "\n") + "\n"
			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestLiveTreeClean is the end-to-end smoke test: the repository's own
// module must analyze clean, so `make lint` only ever fails on a real
// regression. The allocfree pass must also reach the run stream's Fill
// and FillWarm from (*cpu.Core).Run and RunWarming through cpu.Stream,
// and through them the workload generator's batch paths, or the clean
// result would say nothing about them.
func TestLiveTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("Load(repo): %v", err)
	}
	for _, f := range Run(mod) {
		t.Errorf("live tree finding: %s", f.Relative(root))
	}

	a := &Analysis{Mod: mod, dirs: collectDirectives(mod)}
	reached := map[string]bool{}
	for n := range a.graph().reachable(allocRoots(a)) {
		reached[n.Name()] = true
	}
	for _, fn := range []string{
		"(*sim.aheadStream).Fill",
		"(*sim.aheadStream).FillWarm",
		"(*workload.Generator).FillWarm",
		"(*workload.Generator).Fill",
		"(*workload.source).float",
		"(*workload.region).next",
		"(*workload.zipfTable).draw",
		"(*workload.zipfTable).verbatim",
	} {
		if !reached[fn] {
			t.Errorf("allocfree does not reach %s from the steady-state roots", fn)
		}
	}
}

// TestParseDirective covers the suppression grammar, including every
// malformed shape the driver must reject.
func TestParseDirective(t *testing.T) {
	cases := []struct {
		text    string
		ok      bool // is an icrvet directive at all
		wantErr string
		passes  []string
		reason  string
	}{
		{text: "icrvet:ignore determinism wall-clock seam", ok: true,
			passes: []string{"determinism"}, reason: "wall-clock seam"},
		{text: "  icrvet:ignore droppederr,floatorder shared justification  ", ok: true,
			passes: []string{"droppederr", "floatorder"}, reason: "shared justification"},
		{text: "icrvet:ignore resetcoverage multi word reason here", ok: true,
			passes: []string{"resetcoverage"}, reason: "multi word reason here"},

		// Malformed directives.
		{text: "icrvet:ignore", ok: true, wantErr: "missing pass name"},
		{text: "icrvet:ignore determinism", ok: true, wantErr: "missing reason"},
		{text: "icrvet:ignore nosuchpass some reason", ok: true, wantErr: `unknown pass "nosuchpass"`},
		{text: "icrvet:ignore determinism,, double comma", ok: true, wantErr: "empty pass name"},
		{text: "icrvet:ignore ,determinism leading comma", ok: true, wantErr: "empty pass name"},

		// Not directives at all.
		{text: "just a comment", ok: false},
		{text: "icrvet:ignorex determinism reason", ok: false},
		{text: "nolint:gocritic whatever", ok: false},
	}
	for _, tc := range cases {
		passes, reason, ok, err := parseDirective(tc.text)
		if ok != tc.ok {
			t.Errorf("%q: directive=%v, want %v", tc.text, ok, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: err=%v, want containing %q", tc.text, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: unexpected error %v", tc.text, err)
			continue
		}
		if strings.Join(passes, "|") != strings.Join(tc.passes, "|") {
			t.Errorf("%q: passes=%v, want %v", tc.text, passes, tc.passes)
		}
		if reason != tc.reason {
			t.Errorf("%q: reason=%q, want %q", tc.text, reason, tc.reason)
		}
	}
}

// TestSuppressFixture pins the semantics end to end: valid directives
// remove findings, malformed ones become directive findings, and a wrong
// pass name both fails to suppress and is flagged as a stale suppression.
func TestSuppressFixture(t *testing.T) {
	lines := analyzeFixture(t, "suppress")
	var directives, floats int
	for _, l := range lines {
		switch {
		case strings.Contains(l, "[directive]"):
			directives++
		case strings.Contains(l, "[floatorder]"):
			floats++
		}
		if strings.Contains(l, "SumTrailing") || strings.Contains(l, "SumAbove") {
			t.Errorf("suppressed function leaked a finding: %s", l)
		}
	}
	if directives != 4 {
		t.Errorf("got %d directive findings, want 4 (stale wrong-pass, empty, unknown pass, missing reason):\n%s",
			directives, strings.Join(lines, "\n"))
	}
	stale := false
	for _, l := range lines {
		if strings.Contains(l, "suppresses nothing") {
			stale = true
		}
	}
	if !stale {
		t.Errorf("wrong-pass directive was not flagged as stale:\n%s", strings.Join(lines, "\n"))
	}
	// SumWrongPass and SumMalformed must both still be flagged.
	if floats != 2 {
		t.Errorf("got %d floatorder findings, want 2:\n%s", floats, strings.Join(lines, "\n"))
	}
}

// TestHotPathScope pins that determinism only polices the simulation
// packages: the fixture's tools/ package commits the same sins and stays
// clean, while internal/sim and internal/core are both flagged.
func TestHotPathScope(t *testing.T) {
	lines := analyzeFixture(t, "determinism")
	flagged := map[string]bool{}
	for _, l := range lines {
		file, _, _ := strings.Cut(l, ":")
		flagged[path.Dir(file)] = true
	}
	for dir := range flagged {
		if !inScope(dir, hotPaths) {
			t.Errorf("determinism flagged %s, outside its scope:\n%s", dir, strings.Join(lines, "\n"))
		}
	}
	for _, dir := range []string{"internal/sim", "internal/core"} {
		if !flagged[dir] {
			t.Errorf("no determinism finding in %s:\n%s", dir, strings.Join(lines, "\n"))
		}
	}
}

// TestParallelDeterminism pins that the sharded parallel engine produces
// identical output across repeated runs over a multi-package fixture.
func TestParallelDeterminism(t *testing.T) {
	base := analyzeFixture(t, "droppederr")
	for i := 0; i < 3; i++ {
		again := analyzeFixture(t, "droppederr")
		if strings.Join(again, "\n") != strings.Join(base, "\n") {
			t.Fatalf("run %d differed:\n%s\n--- vs ---\n%s",
				i, strings.Join(again, "\n"), strings.Join(base, "\n"))
		}
	}
}
