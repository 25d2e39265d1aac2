package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cliflag"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/serve"
)

func TestRunBasic(t *testing.T) {
	if err := run(context.Background(), []string{"-bench", "gzip", "-scheme", "BaseP", "-instructions", "20000"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunICRWithOptions(t *testing.T) {
	err := run(context.Background(), []string{
		"-bench", "vpr", "-scheme", "ICR-ECC-PS(S)", "-instructions", "20000",
		"-window", "1000", "-victim", "dead-first", "-distances", "32,16",
		"-replicas", "2", "-leave", "-csv",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunFaultInjection(t *testing.T) {
	err := run(context.Background(), []string{
		"-bench", "vortex", "-scheme", "BaseECC", "-instructions", "20000",
		"-fault-prob", "0.001", "-fault-model", "column",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-scheme", "NotAScheme"},
		{"-bench", "swim", "-instructions", "1000"},
		{"-victim", "bogus"},
		{"-distances", "1,x"},
		{"-fault-prob", "0.1", "-fault-model", "bogus"},
		{"-fault-model", "bogus"},
		{"-fault-seed", "3"},
		{"-fault-prob", "2"},
		{"-replicas", "-3"},
		{"-scheme", "BaseP", "-adapt", "decay"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestParseVictim(t *testing.T) {
	for _, name := range []string{"dead-only", "dead-first", "replica-first", "replica-only"} {
		v, err := core.ParseVictimPolicy(name)
		if err != nil || v.String() != name {
			t.Errorf("ParseVictimPolicy(%q) = %v, %v", name, v, err)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := cliflag.Ints("32, 16,8")
	if err != nil || len(got) != 3 || got[0] != 32 || got[1] != 16 || got[2] != 8 {
		t.Errorf("Ints = %v, %v", got, err)
	}
}

func TestRunAllSchemes(t *testing.T) {
	if err := run(context.Background(), []string{"-all", "-bench", "gzip", "-instructions", "15000", "-window", "1000", "-victim", "dead-first"}); err != nil {
		t.Fatal(err)
	}
}

// TestFlaglessRunMatchesRequest: icrsim with no flags and a POST /v1/runs
// body naming only the same benchmark and scheme build the same run, down
// to its memoization key; so does icrsim with each run flag set beside
// the body that sets the field the flag mirrors. Each flag changes the
// run, so a flag bound to no field (or the wrong one) fails its row.
func TestFlaglessRunMatchesRequest(t *testing.T) {
	const prob = `"fault_prob":0.001,`
	cases := []struct {
		args []string
		body string // fields besides benchmark and scheme
	}{
		{nil, ``},
		{[]string{"-bench", "gzip"}, `"benchmark":"gzip"`},
		{[]string{"-scheme", "BaseECC"}, `"scheme":"BaseECC"`},
		{[]string{"-instructions", "30000"}, `"instructions":30000`},
		{[]string{"-seed", "7"}, `"seed":7`},
		{[]string{"-window", "1000"}, `"decay_window":1000`},
		{[]string{"-victim", "dead-first"}, `"victim":"dead-first"`},
		{[]string{"-distances", "32,16"}, `"distances":[32,16]`},
		{[]string{"-replicas", "2"}, `"replicas":2`},
		{[]string{"-leave"}, `"leave_replicas":true`},
		{[]string{"-writethrough"}, `"write_through":true`},
		{[]string{"-fault-prob", "0.001"}, `"fault_prob":0.001`},
		{[]string{"-fault-prob", "0.001", "-fault-model", "column"}, prob + `"fault_model":"column"`},
		{[]string{"-fault-prob", "0.001", "-fault-seed", "9"}, prob + `"fault_seed":9`},
		{[]string{"-sample", "on"}, `"sample":"on"`},
		{[]string{"-adapt", "ehc"}, `"adapt":"ehc"`},
		{[]string{"-twotier", "icr"}, `"twotier":"icr"`},
	}
	var flagless runner.Key
	for i, tc := range cases {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		flagRun, err := serve.BuildRun(o.req)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		// A later field of the same name overrides the defaults.
		body := `{"benchmark":"vpr","scheme":"ICR-P-PS(S)"`
		if tc.body != "" {
			body += "," + tc.body
		}
		var req serve.RunRequest
		if err := json.Unmarshal([]byte(body+"}"), &req); err != nil {
			t.Fatal(err)
		}
		reqRun, err := serve.BuildRun(req)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		got, ok1 := runner.KeyFor(config.Default(), flagRun)
		want, ok2 := runner.KeyFor(config.Default(), reqRun)
		if !ok1 || !ok2 || got != want {
			t.Errorf("icrsim %v: key %v (ok %v) != request %s key %v (ok %v)", tc.args, got, ok1, body, want, ok2)
		}
		if i == 0 {
			flagless = got
		} else if got == flagless {
			t.Errorf("icrsim %v builds the flagless run", tc.args)
		}
	}
}

// TestAllSchemesApplyTwoTierAndAdapt: -all builds every scheme's run with
// -twotier, and with -adapt on each replicating scheme, then runs them.
func TestAllSchemesApplyTwoTierAndAdapt(t *testing.T) {
	args := []string{"-all", "-bench", "gzip", "-instructions", "15000", "-twotier", "ecc", "-adapt", "decay"}
	o, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := schemeRuns(o.req)
	if err != nil {
		t.Fatal(err)
	}
	tier, err := config.ParseTwoTier("ecc")
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(core.AllSchemes()) {
		t.Fatalf("%d runs, want one per scheme (%d)", len(runs), len(core.AllSchemes()))
	}
	for _, r := range runs {
		if !reflect.DeepEqual(r.TwoTier, tier) {
			t.Errorf("%s: TwoTier = %+v, want %+v", r.Scheme.Name(), r.TwoTier, tier)
		}
		if r.Adapt.Enabled() != r.Scheme.HasReplication() {
			t.Errorf("%s: adaptive controller enabled = %v, want %v",
				r.Scheme.Name(), r.Adapt.Enabled(), r.Scheme.HasReplication())
		}
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
}
