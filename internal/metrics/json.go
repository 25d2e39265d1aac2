package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ReportSchemaVersion is the highest wire-format version of Report's
// JSON encoding. Every marshalled report carries its version in the
// "schema" field, and icrd HTTP responses and internal/store disk entries
// embed that encoding unchanged, so the payload itself is the only place
// a report's version lives.
//
// Each optional block raised the version once, and a report is tagged
// with the lowest version whose field set covers the blocks it actually
// carries (wireVersion), so payloads older readers could parse keep the
// encoding those readers produced:
//
//	1 — exact runs: every counter, no optional block.
//	2 — the Sampling block (SamplingStats) of sampled runs.
//	3 — the Adaptive block (AdaptiveStats) of ICR-ADAPT runs.
//	4 — the TwoTier block (TwoTierStats) of runs with a protected second
//	    tier or memory-tier energy pricing.
//
// One rule decodes them all: a payload is accepted if and only if its
// declared schema equals the version its blocks imply. A change to the
// set of Report fields (added, removed, or renamed) must change that
// version for every payload it affects — a new optional block takes
// ReportSchemaVersion+1 — so the decoder rejects what older writers
// produced, which turns a stale disk entry into a cache miss instead of
// a silently wrong report. The golden test in json_test.go fails on any
// field change that is not accompanied by a bump.
const ReportSchemaVersion = 4

// ErrReportSchema is returned (wrapped) by Report.UnmarshalJSON when the
// payload's declared schema version is not the one its blocks imply.
// Callers that read cached reports should treat it as a miss, not a
// failure.
var ErrReportSchema = errors.New("metrics: report schema version mismatch")

// reportWire is Report plus the schema discriminator. The alias type
// drops Report's methods so encoding/json does not recurse into
// MarshalJSON/UnmarshalJSON.
type reportAlias Report

type reportWire struct {
	Schema int `json:"schema"`
	reportAlias
}

// wireVersion returns the schema version a report marshals under: the
// lowest version whose field set covers the optional blocks the report
// actually carries (see ReportSchemaVersion).
func (r *Report) wireVersion() int {
	switch {
	case r.TwoTier != nil:
		return ReportSchemaVersion
	case r.Adaptive != nil:
		return 3
	case r.Sampling != nil:
		return 2
	default:
		return 1
	}
}

// MarshalJSON encodes the report with its schema version as a leading
// "schema" field (see wireVersion). The encoding is stable: field order
// follows the struct definition and float64 values round-trip exactly
// (encoding/json emits the shortest representation that parses back to
// the same bits), so a report stored and reloaded is byte-identical when
// re-marshalled.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportWire{Schema: r.wireVersion(), reportAlias: reportAlias(r)})
}

// UnmarshalJSON decodes a report, accepting a payload if and only if its
// declared schema equals the wireVersion of the blocks it carries — so it
// accepts exactly what MarshalJSON emits — and rejecting anything else
// with an error wrapping ErrReportSchema.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w reportWire
	w.Schema = -1
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	rep := Report(w.reportAlias)
	if want := rep.wireVersion(); w.Schema != want {
		return fmt.Errorf("%w: declared %d, blocks imply %d", ErrReportSchema, w.Schema, want)
	}
	*r = rep
	return nil
}
