package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
)

// FuzzRunRequest: a POST /v1/runs body goes through decodeBody and
// BuildRun without panicking, and every body BuildRun accepts yields a
// run that runner.KeyFor can fingerprint — so every accepted request is
// memoizable and reaches the result store.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"benchmark":"gzip","scheme":"BaseP"}`,
		`{"benchmark":"vpr","scheme":"ICR-P-PS(S)","instructions":30000,"seed":2,"decay_window":1000,` +
			`"victim":"dead-first","distances":[32,16],"replicas":2,"leave_replicas":true,"write_through":true,` +
			`"fault_model":"column","fault_prob":0.001,"fault_seed":7,"timeout_ms":50}`,
		`{"benchmark":"mcf","scheme":"ICR-ECC-PP(LS)","sample":"period=50000,detail=1000","adapt":"decay"}`,
		`{"benchmark":"gzip","scheme":"BaseECC","twotier":"protect=ECC,cross=true,prob=0.5,fault=random"}`,
		`{"benchmark":"gzip","scheme":"BaseP","fault_prob":2}`,
		`{"benchmark":"gzip","scheme":"NoSuch"}`,
		`{"benchmark":"gzip","scheme":"BaseP","bogus":1}`,
		`{"benchmark":"gzip"}`, `{}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req RunRequest
		if decodeBody(httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)), &req) != nil {
			return
		}
		run, err := BuildRun(req)
		if err != nil {
			return
		}
		if _, ok := runner.KeyFor(config.Default(), run); !ok {
			t.Fatalf("accepted request builds a run KeyFor cannot fingerprint\nbody: %s", body)
		}
	})
}

// FuzzFigureRequest: a POST /v1/figures/{id} body goes through decodeBody
// and figureOptions without panicking, and an accepted body's budget and
// seed reach the experiment options unchanged.
func FuzzFigureRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`, `{"instructions":20000,"seed":3}`, `{"seeds":[1,2,3],"timeout_ms":10}`,
		`{"sample":"on"}`, `{"sample":"period=0"}`, `{"seed":"x"}`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req FigureRequest
		if decodeBody(httptest.NewRequest(http.MethodPost, "/v1/figures/fig1", bytes.NewReader(body)), &req) != nil {
			return
		}
		opts, err := figureOptions(req)
		if err != nil {
			return
		}
		if opts.Instructions != req.Instructions || opts.Seed != req.Seed {
			t.Fatalf("options %+v lost the request's budget or seed\nbody: %s", opts, body)
		}
	})
}
