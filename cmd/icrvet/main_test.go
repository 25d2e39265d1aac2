package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// runCLI invokes the CLI entry point and captures its streams.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCLICleanTree is the acceptance smoke test: `icrvet` over the live
// repository exits 0 with no output.
func TestCLICleanTree(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-C", filepath.Join("..", ".."))
	if code != 0 {
		t.Fatalf("exit %d on live tree\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("unexpected findings:\n%s", stdout)
	}
}

// TestCLIFixturesFail pins that each pass's fixture makes the CLI exit
// nonzero and name the right pass.
func TestCLIFixturesFail(t *testing.T) {
	cases := []struct {
		fixture string
		pass    string
	}{
		{"determinism", "[determinism]"},
		{"resetcoverage", "[resetcoverage]"},
		{"floatorder", "[floatorder]"},
		{"droppederr", "[droppederr]"},
		{"suppress", "[directive]"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			dir := filepath.Join("..", "..", "internal", "lint", "testdata", tc.fixture)
			code, stdout, _ := runCLI(t, "-C", dir)
			if code != 1 {
				t.Fatalf("exit %d, want 1\nstdout:\n%s", code, stdout)
			}
			if !strings.Contains(stdout, tc.pass) {
				t.Errorf("output does not mention %s:\n%s", tc.pass, stdout)
			}
		})
	}
}

// TestCLIRejectsArguments pins that icrvet takes no package patterns: the
// engine always analyzes the whole module, so a pattern could only hide
// findings. Any argument is a usage error.
func TestCLIRejectsArguments(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"internal/sim/..."}, {"-passes", "determinism"}, {"-json"}} {
		code, stdout, stderr := runCLI(t, args...)
		if code != 2 || stdout != "" {
			t.Errorf("icrvet %q: exit %d, stdout %q, stderr %q; want exit 2 and no output", args, code, stdout, stderr)
		}
	}
}

// TestCLIList covers -list: it names every registered pass.
func TestCLIList(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	names := lint.PassNames()
	if got := strings.Count(stdout, "\n"); got != len(names) {
		t.Errorf("-list printed %d lines for %d passes:\n%s", got, len(names), stdout)
	}
	for _, pass := range names {
		if !strings.Contains(stdout, pass) {
			t.Errorf("-list output missing %s:\n%s", pass, stdout)
		}
	}
}
