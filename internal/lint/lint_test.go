package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// fixtureOpts maps each fixture to the options its golden run uses. The
// fixtures lay their packages out on the real module's paths
// (internal/sim, cmd/, internal/runner), so every fixture runs with the
// default scopes — exactly what `icrvet ./...` does.
var fixtures = []string{
	"determinism",
	"keycoverage",
	"syncmisuse",
	"floatorder",
	"droppederr",
	"suppress",
	"resetcoverage",
	"resetnested",
	"allocfree",
	"allochot",
	"wireschema",
	"ctxflow",
	"ctxsleep",
}

// fixturePass names the pass each single-pass fixture exists to trip, so
// a pass that silently stops firing fails loudly even if the golden is
// regenerated without looking.
var fixturePass = map[string]string{
	"determinism":   "determinism",
	"keycoverage":   "keycoverage",
	"syncmisuse":    "syncmisuse",
	"floatorder":    "floatorder",
	"droppederr":    "droppederr",
	"resetcoverage": "resetcoverage",
	"resetnested":   "resetcoverage",
	"allocfree":     "allocfree",
	"allochot":      "allocfree",
	"wireschema":    "wirecoverage",
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
	findings, err := Analyze(root, Options{})
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
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
// regression.
func TestLiveTreeClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(root, Options{})
	if err != nil {
		t.Fatalf("Analyze(repo): %v", err)
	}
	for _, f := range findings {
		t.Errorf("live tree finding: %s", f.Relative(root))
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
		{text: "icrvet:ignore keycoverage multi word reason here", ok: true,
			passes: []string{"keycoverage"}, reason: "multi word reason here"},

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

// TestSelectPasses covers the pass-subset plumbing and unknown names.
func TestSelectPasses(t *testing.T) {
	if _, err := selectPasses([]string{"determinism", "droppederr"}); err != nil {
		t.Fatal(err)
	}
	if _, err := selectPasses([]string{"bogus"}); err == nil {
		t.Fatal("selectPasses(bogus): want error")
	}
	root, err := filepath.Abs(filepath.Join("testdata", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	// Only droppederr selected: the determinism fixture must come back
	// clean, proving the subset actually narrows the run.
	findings, err := Analyze(root, Options{Passes: []string{"droppederr"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("droppederr-only run over determinism fixture: %d findings, want 0", len(findings))
	}
}

// TestHotPathScope pins that determinism only polices the hot packages:
// the fixture's tools/ package commits the same sins and stays clean.
func TestHotPathScope(t *testing.T) {
	lines := analyzeFixture(t, "determinism")
	for _, l := range lines {
		if strings.Contains(l, "tools/") {
			t.Errorf("determinism flagged an off-hot-path package: %s", l)
		}
		if !strings.HasPrefix(l, "internal/sim/") {
			t.Errorf("unexpected finding outside internal/sim: %s", l)
		}
	}
}

// TestJSONRoundTrip pins the -json artifact schema: Encode output decodes
// back to the same report, findings carry root-relative paths, and an
// empty run still encodes "findings": [] (never null).
func TestJSONRoundTrip(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "suppress"))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("suppress fixture produced no findings to encode")
	}
	rep := NewJSONReport(root, nil, findings)
	if rep.Version != JSONVersion {
		t.Errorf("version = %d, want %d", rep.Version, JSONVersion)
	}
	if len(rep.Passes) != len(PassNames()) {
		t.Errorf("passes = %v, want the full roster", rep.Passes)
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeJSONReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Findings) != len(findings) {
		t.Fatalf("round trip lost findings: %d != %d", len(back.Findings), len(findings))
	}
	for i, jf := range back.Findings {
		want := findings[i].Relative(root)
		gotPrefix := jf.File
		if !strings.HasPrefix(want, gotPrefix+":") {
			t.Errorf("finding %d: file %q does not prefix rendered %q", i, jf.File, want)
		}
		if strings.ContainsRune(jf.File, os.PathSeparator) && os.PathSeparator != '/' {
			t.Errorf("finding %d: file %q is not slash-separated", i, jf.File)
		}
	}

	// Empty reports still carry [] and the roster.
	empty, err := NewJSONReport(root, []string{"determinism"}, nil).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(empty), `"findings": []`) {
		t.Errorf("empty report encodes findings as null:\n%s", empty)
	}

	// Future versions are refused, not misparsed.
	if _, err := DecodeJSONReport([]byte(`{"version": 99, "passes": [], "findings": []}`)); err == nil {
		t.Error("DecodeJSONReport accepted an unknown version")
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
