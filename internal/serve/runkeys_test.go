package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
)

// The run-key golden pins what each POST /v1/runs body means: the
// runner.KeyFor of the run BuildRun makes from it, or "reject". The key
// covers every run field, so a refactor of the request mapping or of the
// spec grammars (-sample, -adapt, -twotier) that changes what any body
// simulates moves a line. Regenerate only for a deliberate change:
//
//	go test ./internal/serve -run TestRunRequestKeys -update-keys
var updateKeys = flag.Bool("update-keys", false, "rewrite the run-key golden from the current BuildRun")

var runKeysGoldenPath = filepath.Join("testdata", "runkeys.golden")

// runKeyBodies covers every request field, every key and shortcut of the
// three spec grammars, padded whitespace and empty elements, and the
// bodies and specs the other request and parser tests reject.
var runKeyBodies = []string{
	// Every field.
	`{"benchmark":"gzip","scheme":"BaseP"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":30000,"seed":2}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","decay_window":1000}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","victim":"dead-first"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","distances":[32,16]}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","replicas":2}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","leave_replicas":true}`,
	`{"benchmark":"gzip","scheme":"BaseP","write_through":true}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_prob":0.001}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_model":"column","fault_prob":0.001,"fault_seed":7}`,
	`{"benchmark":"gzip","scheme":"BaseP","timeout_ms":50}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":30000,"seed":2,"decay_window":1000,` +
		`"victim":"dead-first","distances":[32,16],"replicas":2,"leave_replicas":true,"write_through":true,` +
		`"fault_model":"column","fault_prob":0.001,"fault_seed":7,"timeout_ms":50}`,
	// -sample.
	`{"benchmark":"mcf","scheme":"BaseP","sample":"on"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"default"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=50000,detail=1000"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=100000,detail=2000,warmup=500,conf=99"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":" period = 10 , conf=90"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=0"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"conf=95"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=1000,conf=80"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=1000,conf=+95"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=18446744073709551615"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=+5"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"period=1,,"}`,
	`{"benchmark":"mcf","scheme":"BaseP","sample":"x=1"}`,
	// -adapt.
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"on"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"decay"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"ehc"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=ehc,epoch=5000,hysteresis=3"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,maxreplicas=1,minwindow=500,maxwindow=8000"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":" predictor = ehc , epoch = 7 "}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"epoch=10"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=none"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,hysteresis=18446744073709551615"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,maxreplicas=2147483648"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,hysteresis=-1"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,hysteresis=+3"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=ehc,hysteresis=2147483647,maxreplicas=0"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,,"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"predictor=decay,bad=1"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","adapt":"bogus"}`,
	// -twotier.
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"off"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"parity"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"ecc"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"icr"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"icr-ecc"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,replicate=true,victim=dead-first,decay=1000,cross=true"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ecc,latency=4,fault=column,prob=0.001,faultseed=9"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=P,prob=1e-3"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=p,replicate=1,cross=T,prob=1e-3,faultseed=+5,faultseed=-5"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":" protect = parity , prob = 1e-3 "}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ecc, replicate=true , victim = replica-first"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ECC,cross=true,prob=0.5,fault=random"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ECC,replicate=true,cross=true,prob=0.5,fault=random"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"bogus"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=quantum"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"replicate=true"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=P,cross=true"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"prob=1e-3"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=P,window=1000"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=P,decay=plenty"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=P,fault=gamma"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,victim=replica-only,decay=500"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ecc,decay=0"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,replicate=false,victim=dead-first"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,fault=column"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,faultseed=3"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ecc,fault=adjacent,prob=0"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,prob=nan"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,prob=-1"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=parity,,"}`,
	`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect"}`,
	// Bad requests.
	`{"benchmark":"gzip","scheme":"NotAScheme"}`,
	`{"benchmark":"swim","scheme":"ICR-P-PS(S)","instructions":1000}`,
	`{"benchmark":"nosuch","scheme":"BaseP"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","victim":"bogus"}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","distances":[1,"x"]}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","fault_prob":0.1,"fault_model":"bogus"}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_prob":2}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_prob":-1}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_model":"bogus"}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_model":"column"}`,
	`{"benchmark":"gzip","scheme":"BaseP","fault_seed":3}`,
	`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","replicas":-3}`,
	`{"benchmark":"gzip","scheme":"BaseP","adapt":"decay"}`,
	`{"benchmark":"gzip","scheme":"BaseP","bogus":1}`,
	`{"benchmark":"gzip"}`,
	`{"scheme":"BaseP"}`,
	`{}`,
	`null`,
	``,
}

// runKeyLine is one golden line: the body's run key, or "reject".
func runKeyLine(body string) string {
	var req RunRequest
	result := "reject"
	if decodeBody(httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)), &req) == nil {
		if run, err := BuildRun(req); err == nil {
			result = "unkeyed"
			if key, ok := runner.KeyFor(config.Default(), run); ok {
				result = key.String()
			}
		}
	}
	return result + " " + body + "\n"
}

func TestRunRequestKeys(t *testing.T) {
	var got bytes.Buffer
	for _, body := range runKeyBodies {
		got.WriteString(runKeyLine(body))
	}
	if *updateKeys {
		if err := os.WriteFile(runKeysGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(runKeysGoldenPath)
	if err != nil {
		t.Fatalf("missing run-key golden (run with -update-keys): %v", err)
	}
	gotLines, wantLines := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
