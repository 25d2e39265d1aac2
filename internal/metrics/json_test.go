package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// update regenerates testdata/report_schema*.json from the current
// encoding. Only meaningful together with a ReportSchemaVersion bump —
// TestReportSchemaFingerprint still fails on unpinned field changes.
var update = flag.Bool("update", false, "rewrite golden files")

// fillDistinct sets every scalar field of the struct v points at to a
// distinct value, so golden encodings exercise the full schema and
// field-order swaps are visible. It panics on an unhandled kind, which is
// the tripwire that forces this helper (and the goldens) to keep up with
// schema changes.
func fillDistinct(v reflect.Value, base int) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fmt.Sprintf("field%d", base+i))
		case reflect.Uint64:
			f.SetUint(uint64(base + i + 1))
		case reflect.Int:
			f.SetInt(int64(base + i + 1))
		case reflect.Float64:
			f.SetFloat(float64(base+i) + 0.125)
		case reflect.Pointer, reflect.Slice:
			// Handled by the caller (goldenReport): the pointer fields are
			// the optional Sampling/Adaptive/TwoTier blocks and the only
			// slice is AdaptiveStats.Trajectory.
		default:
			panic("fillDistinct: unhandled field kind " + f.Kind().String())
		}
	}
}

// goldenReport populates every field with a distinct value so the golden
// encoding exercises the full schema (reflection above verifies no field
// was missed). sampled attaches a fully populated SamplingStats block;
// adaptive attaches a fully populated AdaptiveStats block with a
// two-entry trajectory; twotier attaches a fully populated TwoTierStats
// block; exact reports leave all three nil.
func goldenReport(sampled, adaptive, twotier bool) Report {
	var r Report
	fillDistinct(reflect.ValueOf(&r).Elem(), 0)
	if sampled {
		var s SamplingStats
		fillDistinct(reflect.ValueOf(&s).Elem(), 100)
		r.Sampling = &s
	}
	if adaptive {
		var a AdaptiveStats
		fillDistinct(reflect.ValueOf(&a).Elem(), 200)
		a.Trajectory = []AdaptiveMove{{Epoch: 301, Level: 302}, {Epoch: 303, Level: 304}}
		r.Adaptive = &a
	}
	if twotier {
		var tt TwoTierStats
		fillDistinct(reflect.ValueOf(&tt).Elem(), 400)
		r.TwoTier = &tt
	}
	return r
}

// TestReportJSONGolden pins the exact wire encoding of Report in every
// schema variant: an exact run (no optional blocks) must stay
// byte-identical to the version-1 encoding, a sampled run pins the
// version-2 encoding with the Sampling block, an adaptive run pins the
// version-3 encoding with the Adaptive block, and a two-tier run pins the
// version-4 encoding carrying all three optional blocks. If this fails
// because Report's fields changed, bump ReportSchemaVersion and
// regenerate the golden files with:
//
//	go test ./internal/metrics -run TestReportJSONGolden -update
func TestReportJSONGolden(t *testing.T) {
	cases := []struct {
		name                       string
		file                       string
		sampled, adaptive, twotier bool
		schema                     int
	}{
		{"exact", "report_schema.json", false, false, false, 1},
		{"sampled", "report_schema_sampled.json", true, false, false, 2},
		{"adaptive", "report_schema_adaptive.json", true, true, false, 3},
		{"twotier", "report_schema_twotier.json", true, true, true, ReportSchemaVersion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := goldenReport(tc.sampled, tc.adaptive, tc.twotier)
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file: %v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Report JSON encoding changed without a schema bump.\n got: %s\nwant: %s\n"+
					"If the field change is intentional, bump metrics.ReportSchemaVersion and re-run with -update.",
					got, want)
			}
			if !strings.Contains(string(got), fmt.Sprintf(`"schema":%d`, tc.schema)) {
				t.Errorf("encoding missing schema:%d field: %s", tc.schema, got)
			}
		})
	}
}

// TestReportSchemaFingerprint is the schema-bump tripwire: it pins the
// full (name, type) list of Report's fields (and those of SamplingStats,
// AdaptiveStats, and AdaptiveMove, which are part of the wire format) for
// the current ReportSchemaVersion. Adding, removing, renaming, or retyping
// a field without bumping the version fails here even if the golden files
// are regenerated.
func TestReportSchemaFingerprint(t *testing.T) {
	const pinnedVersion = 4
	pinnedFields := []string{
		"Benchmark string", "Scheme string",
		"Instructions uint64", "Cycles uint64",
		"DL1Reads uint64", "DL1ReadHits uint64", "DL1ReadMisses uint64",
		"DL1Writes uint64", "DL1WriteHits uint64", "DL1WriteMisses uint64",
		"DL1Writebacks uint64",
		"L2Accesses uint64", "L2Misses uint64", "MemAccesses uint64",
		"IL1Fetches uint64", "IL1Misses uint64",
		"Branches uint64", "Mispredicts uint64",
		"ReplAttempts uint64", "ReplSuccesses uint64", "ReplDoubles uint64",
		"ReadHitsWithReplica uint64", "ReplicaServedMisses uint64",
		"ReplicaEvictions uint64", "DeadEvictions uint64",
		"ErrorsInjected uint64", "ErrorsDetected uint64",
		"RecoveredByECC uint64", "RecoveredByReplica uint64",
		"RecoveredByDuplicate uint64", "RecoveredByL2 uint64",
		"UnrecoverableLoads uint64", "SilentWritebacks uint64",
		"ReadHitsWithDuplicate uint64",
		"VulnerableLineCycles uint64",
		"ScrubChecks uint64", "ScrubErrors uint64",
		"ScrubRepaired uint64", "ScrubLost uint64",
		"EnergyL1 float64", "EnergyL2 float64",
		"EnergyChecks float64", "EnergyRCache float64",
		"Sampling *metrics.SamplingStats",
		"Adaptive *metrics.AdaptiveStats",
		"TwoTier *metrics.TwoTierStats",
	}
	pinnedSamplingFields := []string{
		"Period uint64", "Detail uint64", "Warmup uint64",
		"Confidence int",
		"Windows int",
		"WarmedInstructions uint64", "WarmupDiscarded uint64",
		"MeasuredInstructions uint64", "MeasuredCycles uint64",
		"IPCMean float64", "IPCHalfCI float64",
		"MissRateMean float64", "MissRateHalfCI float64",
	}
	pinnedAdaptiveFields := []string{
		"Predictor string",
		"EpochCycles uint64", "Epochs uint64",
		"MovesUp int", "MovesDown int",
		"PredHits int", "PredMisses int",
		"FinalLevel int", "FinalReplicas int",
		"FinalDecayWindow uint64",
		"FinalVictim string", "FinalLookup string",
		"Trajectory []metrics.AdaptiveMove",
	}
	pinnedMoveFields := []string{"Epoch uint64", "Level int"}
	pinnedTwoTierFields := []string{
		"Tier string",
		"ExtraLatency uint64",
		"MemReads uint64", "MemWrites uint64",
		"EnergyMem float64",
		"ReplAttempts uint64", "ReplSuccesses uint64",
		"ReplicaEvictions uint64", "DeadEvictions uint64",
		"ErrorsInjected uint64", "ErrorsDetected uint64",
		"RecoveredByReplica uint64", "RecoveredByECC uint64",
		"RecoveredByCross uint64", "RecoveredByMem uint64",
		"UnrecoverableDirty uint64", "SilentWritebacks uint64",
		"CrossOffers uint64", "CrossAccepted uint64",
		"CrossRepairs uint64", "CrossRepaired uint64",
		"L1CrossRepaired uint64",
	}
	if ReportSchemaVersion != pinnedVersion {
		t.Fatalf("ReportSchemaVersion = %d but the fingerprint test still pins version %d: "+
			"update pinnedVersion and the pinned field lists to match the new schema",
			ReportSchemaVersion, pinnedVersion)
	}
	fieldList := func(tp reflect.Type) []string {
		var out []string
		for i := 0; i < tp.NumField(); i++ {
			f := tp.Field(i)
			out = append(out, f.Name+" "+f.Type.String())
		}
		return out
	}
	check := func(tp reflect.Type, pinned []string) {
		if got := fieldList(tp); !reflect.DeepEqual(got, pinned) {
			t.Errorf("%s fields changed without bumping ReportSchemaVersion.\n got: %v\nwant: %v\n"+
				"Bump metrics.ReportSchemaVersion, then update the pinned lists and the golden files.",
				tp.Name(), got, pinned)
		}
	}
	check(reflect.TypeOf(Report{}), pinnedFields)
	check(reflect.TypeOf(SamplingStats{}), pinnedSamplingFields)
	check(reflect.TypeOf(AdaptiveStats{}), pinnedAdaptiveFields)
	check(reflect.TypeOf(AdaptiveMove{}), pinnedMoveFields)
	check(reflect.TypeOf(TwoTierStats{}), pinnedTwoTierFields)
}

// fillEvery is fillDistinct over the whole report tree: it also
// allocates every pointer block and gives every slice one element, and
// fills each struct it reaches.
func fillEvery(v reflect.Value, base int) {
	fillDistinct(v, base)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
			f = f.Elem()
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			f = f.Index(0)
		default:
			continue
		}
		if f.Kind() == reflect.Struct {
			fillEvery(f, base+100*(i+1))
		}
	}
}

// jsonPaths adds the dotted path of every object key in a decoded JSON
// value to out; array elements share their array's path.
func jsonPaths(v any, prefix string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, sub := range v {
			out[prefix+k] = true
			jsonPaths(sub, prefix+k+".", out)
		}
	case []any:
		for _, sub := range v {
			jsonPaths(sub, prefix, out)
		}
	}
}

// TestReportSchemaCoversEveryField marshals a report with every field,
// every optional block and one element of every slice filled, and
// requires each key path it emits to appear in one of the committed
// schema goldens. goldenReport attaches the optional blocks by hand, so a
// new block it forgets to fill would otherwise reach the wire unpinned:
// the goldens would regenerate without it and the fingerprint only lists
// the block's own field.
func TestReportSchemaCoversEveryField(t *testing.T) {
	var r Report
	fillEvery(reflect.ValueOf(&r).Elem(), 0)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	emitted := make(map[string]bool)
	jsonPaths(doc, "", emitted)

	files, err := filepath.Glob(filepath.Join("testdata", "report_schema*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no schema goldens under testdata (err %v)", err)
	}
	pinned := make(map[string]bool)
	for _, f := range files {
		golden, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var g any
		if err := json.Unmarshal(golden, &g); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		jsonPaths(g, "", pinned)
	}

	var missing []string
	for p := range emitted {
		if !pinned[p] {
			missing = append(missing, p)
		}
	}
	sort.Strings(missing)
	for _, p := range missing {
		t.Errorf("Report emits %q, which no testdata/report_schema*.json golden pins: "+
			"fill it in goldenReport, bump ReportSchemaVersion and re-run with -update", p)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	for _, tc := range []struct{ sampled, adaptive, twotier bool }{
		{false, false, false}, {true, false, false}, {false, true, false},
		{true, true, false}, {false, false, true}, {true, true, true},
	} {
		r := goldenReport(tc.sampled, tc.adaptive, tc.twotier)
		data, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Errorf("%+v: round trip changed the report:\n got %+v\nwant %+v", tc, back, r)
		}
		// Re-marshalling the decoded report is byte-identical: the durability
		// guarantee the disk store relies on.
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%+v: re-marshal not byte-identical:\n first %s\nsecond %s", tc, data, again)
		}
	}
}

func TestReportJSONSchemaMismatch(t *testing.T) {
	r := goldenReport(true, true, true)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data,
		[]byte(fmt.Sprintf(`"schema":%d`, ReportSchemaVersion)),
		[]byte(fmt.Sprintf(`"schema":%d`, ReportSchemaVersion+1)), 1)
	var back Report
	if err := json.Unmarshal(bad, &back); !errors.Is(err, ErrReportSchema) {
		t.Errorf("future-schema decode err = %v, want ErrReportSchema", err)
	}
	missing := []byte(`{"Benchmark":"x"}`)
	if err := json.Unmarshal(missing, &back); !errors.Is(err, ErrReportSchema) {
		t.Errorf("missing-schema decode err = %v, want ErrReportSchema", err)
	}
}

// TestReportSchemaRule pins the decoder's one rule over every
// combination of optional blocks and every declared version: a payload is
// accepted if and only if its declared schema equals the version its
// blocks imply — the version MarshalJSON would tag it with — so the
// decoder accepts exactly what the encoder emits.
func TestReportSchemaRule(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		sampled, adaptive, twotier := mask&1 != 0, mask&2 != 0, mask&4 != 0
		var blocks []string
		implied := 1
		if sampled {
			blocks, implied = append(blocks, "sampling"), 2
		}
		if adaptive {
			blocks, implied = append(blocks, "adaptive"), 3
		}
		if twotier {
			blocks, implied = append(blocks, "twotier"), 4
		}
		label := "exact"
		if len(blocks) > 0 {
			label = strings.Join(blocks, "+")
		}
		r := goldenReport(sampled, adaptive, twotier)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		emitted := fmt.Sprintf(`{"schema":%d,`, implied)
		if !bytes.HasPrefix(data, []byte(emitted)) {
			t.Fatalf("%s: encoding does not start with %s: %s", label, emitted, data)
		}
		for declared := -1; declared <= 5; declared++ {
			name, head := label+"-without-schema", "{"
			if declared >= 0 {
				name, head = fmt.Sprintf("%s-as-v%d", label, declared), fmt.Sprintf(`{"schema":%d,`, declared)
			}
			t.Run(name, func(t *testing.T) {
				payload := append([]byte(head), data[len(emitted):]...)
				var back Report
				err := json.Unmarshal(payload, &back)
				if declared != implied {
					if !errors.Is(err, ErrReportSchema) {
						t.Errorf("decode err = %v, want ErrReportSchema (blocks imply version %d)", err, implied)
					}
					return
				}
				if err != nil {
					t.Fatalf("emitted encoding rejected: %v", err)
				}
				if !reflect.DeepEqual(back, r) {
					t.Errorf("decoded report differs:\n got %+v\nwant %+v", back, r)
				}
			})
		}
	}
}
