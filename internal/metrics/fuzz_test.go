package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReportUnmarshal: Report.UnmarshalJSON never panics, and on every
// payload it accepts, marshal∘unmarshal is the identity — re-encoding the
// decoded report reproduces the payload's declared schema, and decoding
// that again yields the same report and the same bytes. Seeded from the
// committed schema goldens.
func FuzzReportUnmarshal(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "report_schema*.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no schema goldens to seed from (%v)", err)
	}
	for _, g := range goldens {
		data, err := os.ReadFile(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`{"schema":1,"sampling":{}}`))
	f.Add([]byte(`{"schema":4,"benchmark":"gzip","cycles":-1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"schema":4,"Benchmark":"gzip"}`))
	f.Add([]byte(`{"schema":3,"Sampling":{},"Adaptive":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return
		}
		var declared struct {
			Schema int `json:"schema"`
		}
		if err := json.Unmarshal(data, &declared); err != nil {
			t.Fatalf("accepted payload has no readable schema: %v\npayload: %s", err, data)
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v\npayload: %s", err, data)
		}
		if want := fmt.Sprintf(`{"schema":%d,`, declared.Schema); !bytes.HasPrefix(enc, []byte(want)) {
			t.Fatalf("re-encoding changed the declared schema %d\npayload: %s\nre-encoded: %s", declared.Schema, data, enc)
		}
		var again Report
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded report rejected: %v\npayload: %s\nre-encoded: %s", err, data, enc)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("decode(encode(r)) != r\npayload: %s\nre-encoded: %s", data, enc)
		}
		enc2, err := json.Marshal(again)
		if err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("encoding not stable (%v)\nfirst:  %s\nsecond: %s", err, enc, enc2)
		}
	})
}
