package store

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// ctx is the do-not-care context for store calls in tests.
var ctx = context.Background()

// getOK adapts the error-returning Get to the hit/miss shape most tests
// assert on: a clean miss (ErrMiss) is (nil, false) and any other error —
// which no test here expects — fails the test.
func getOK(t *testing.T, s Backend, key string) (*metrics.Report, bool) {
	t.Helper()
	rep, err := s.Get(ctx, key)
	if err == nil {
		return rep, true
	}
	if errors.Is(err, ErrMiss) {
		return nil, false
	}
	t.Fatalf("Get(%s): unexpected non-miss error: %v", key, err)
	return nil, false
}

func testReport(cycles uint64) *metrics.Report {
	return &metrics.Report{
		Benchmark:    "vpr",
		Scheme:       "ICR-P-PS(S)",
		Instructions: 100_000,
		Cycles:       cycles,
		DL1Reads:     123,
		EnergyL1:     41.5,
	}
}

// keyN returns a distinct valid 64-hex key.
func keyN(n byte) string {
	return strings.Repeat("0", 62) + strings.Repeat(string([]byte{'a' + n%6}), 2)
}

func mustOpen(t *testing.T, dir string, o Options) *Store {
	t.Helper()
	s, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	key := keyN(0)
	want := testReport(777)
	if err := s.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := getOK(t, s, key)
	if !ok {
		t.Fatal("Get missed a just-Put key")
	}
	if *got != *want {
		t.Errorf("round trip changed the report: got %+v want %+v", got, want)
	}
	if _, ok := getOK(t, s, keyN(1)); ok {
		t.Error("Get hit an absent key")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 put, 1 entry", st)
	}
}

// TestPersistsAcrossReopen is the durability core: a report written by one
// Store is served by a fresh Store over the same directory — the restart
// path of the icrd acceptance test.
func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	want := testReport(42)
	s1 := mustOpen(t, dir, Options{})
	if err := s1.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	got, ok := getOK(t, s2, key)
	if !ok {
		t.Fatal("reopened store missed a persisted key")
	}
	if *got != *want {
		t.Errorf("reopened store returned %+v, want %+v", got, want)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	path := filepath.Join(dir, key+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := getOK(t, s, key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still in place: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 quarantined, 0 entries", st)
	}
	// A quarantined file is invisible to a reopened store.
	s2 := mustOpen(t, dir, Options{})
	if _, ok := getOK(t, s2, key); ok {
		t.Error("reopened store served a quarantined entry")
	}
}

func TestTruncatedEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	if err := os.Truncate(path, headerSize-5); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); ok {
		t.Fatal("truncated entry served as a hit")
	}
}

// TestStaleSchemaIsMiss writes an entry whose header carries an older
// report-schema version: it must degrade to a miss (re-simulate), and the
// file is removed rather than quarantined (stale, not corrupt).
func TestStaleSchemaIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], metrics.ReportSchemaVersion-1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); ok {
		t.Fatal("stale-schema entry served as a hit")
	}
	if st := s.Stats(); st.SchemaStale != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want 1 schema-stale, 0 quarantined", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("stale entry not removed: %v", err)
	}
	// Re-put under the current schema works again.
	if err := s.Put(ctx, key, testReport(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); !ok {
		t.Error("re-put after stale drop missed")
	}
}

// sampledReport is testReport plus the schema-2 Sampling block a sampled
// run attaches.
func sampledReport(cycles uint64) *metrics.Report {
	r := testReport(cycles)
	r.Sampling = &metrics.SamplingStats{
		Period: 50_000, Detail: 1_000, Warmup: 400, Confidence: 95,
		Windows:            40,
		WarmedInstructions: 1_900_000, WarmupDiscarded: 16_000,
		MeasuredInstructions: 40_000, MeasuredCycles: 52_000,
		IPCMean: 0.77, IPCHalfCI: 0.012,
		MissRateMean: 0.031, MissRateHalfCI: 0.004,
	}
	return r
}

// TestSampledReportRoundTrip: a schema-2 report (Sampling block attached)
// survives Put/Get — including across a reopen — with a byte-identical
// payload, the durability guarantee the runner's memoization relies on.
func TestSampledReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	want := sampledReport(999)
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"same": s, "reopened": mustOpen(t, dir, Options{})} {
		got, ok := getOK(t, st, key)
		if !ok {
			t.Fatalf("%s store missed the sampled entry", name)
		}
		if got.Sampling == nil {
			t.Fatalf("%s store dropped the Sampling block", name)
		}
		gotJSON, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s store round trip not byte-identical:\n got: %s\nwant: %s", name, gotJSON, wantJSON)
		}
	}
}

// TestPreSamplingEntryIsMiss pins the migration story for entries written
// before the sampling schema bump: their header carries report schema 1,
// which the current store treats as stale — a miss that forces
// resimulation — rather than serving a payload the current decoder only
// half-understands.
func TestPreSamplingEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 1) // pre-sampling schema
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); ok {
		t.Fatal("pre-sampling entry served as a hit")
	}
	if st := s.Stats(); st.SchemaStale != 1 {
		t.Errorf("stats = %+v, want 1 schema-stale", st)
	}
}

// adaptiveReport is testReport plus the schema-3 Adaptive block an
// ICR-ADAPT run attaches.
func adaptiveReport(cycles uint64) *metrics.Report {
	r := testReport(cycles)
	r.Adaptive = &metrics.AdaptiveStats{
		Predictor: "decay", EpochCycles: 20_000, Epochs: 48,
		MovesUp: 3, MovesDown: 2, PredHits: 4, PredMisses: 1,
		FinalLevel: 2, FinalReplicas: 1, FinalDecayWindow: 0,
		FinalVictim: "dead-only", FinalLookup: "PS",
		Trajectory: []metrics.AdaptiveMove{{Epoch: 5, Level: 2}, {Epoch: 11, Level: 3}},
	}
	return r
}

// TestAdaptiveReportRoundTrip: a schema-3 report (Adaptive block attached)
// survives Put/Get — including across a reopen — with a byte-identical
// payload.
func TestAdaptiveReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	want := adaptiveReport(1234)
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"same": s, "reopened": mustOpen(t, dir, Options{})} {
		got, ok := getOK(t, st, key)
		if !ok {
			t.Fatalf("%s store missed the adaptive entry", name)
		}
		if got.Adaptive == nil {
			t.Fatalf("%s store dropped the Adaptive block", name)
		}
		gotJSON, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s store round trip not byte-identical:\n got: %s\nwant: %s", name, gotJSON, wantJSON)
		}
	}
}

// TestPreAdaptiveEntryIsMiss pins the migration story for the adaptive
// schema bump: an entry written under report schema 2 (the pre-adaptive
// store format) degrades to a SchemaStale miss and is deleted, never
// served.
func TestPreAdaptiveEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, sampledReport(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:12], 2) // pre-adaptive schema
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); ok {
		t.Fatal("pre-adaptive entry served as a hit")
	}
	if st := s.Stats(); st.SchemaStale != 1 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want 1 schema-stale, 0 quarantined", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("pre-adaptive entry not removed: %v", err)
	}
}

func TestStaleContainerFormatIsMiss(t *testing.T) {
	dir := t.TempDir()
	key := keyN(0)
	s := mustOpen(t, dir, Options{})
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[4:8], FormatVersion+1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, key); ok {
		t.Fatal("future-format entry served as a hit")
	}
}

// TestLRUEviction: the byte cap evicts least-recently-used entries, and a
// Get refreshes recency so warm entries survive.
func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Size the cap to hold roughly two entries.
	one := testReport(1)
	payload, err := one.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var evicted int
	s := mustOpen(t, dir, Options{
		MaxBytes: int64(len(payload))*2 + 10,
		OnEvict:  func(n int) { evicted += n },
	})
	k0, k1, k2 := keyN(0), keyN(1), keyN(2)
	for _, k := range []string{k0, k1} {
		if err := s.Put(ctx, k, one); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is the LRU victim.
	if _, ok := getOK(t, s, k0); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := s.Put(ctx, k2, one); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s, k1); ok {
		t.Error("LRU entry survived the cap")
	}
	if _, ok := getOK(t, s, k0); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok := getOK(t, s, k2); !ok {
		t.Error("just-put entry was evicted")
	}
	if evicted != 1 {
		t.Errorf("OnEvict reported %d, want 1", evicted)
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Errorf("stats evictions = %d, want 1", st.Evictions)
	}
}

// TestEvictionOrderSurvivesReopen: mtimes order the LRU list at Open.
func TestEvictionOrderSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	one := testReport(1)
	payload, err := one.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustOpen(t, dir, Options{MaxBytes: -1})
	k0, k1 := keyN(0), keyN(1)
	if err := s1.Put(ctx, k0, one); err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(ctx, k1, one); err != nil {
		t.Fatal(err)
	}
	// Make k0 clearly newer than k1 without relying on Put timing.
	old := filepath.Join(dir, k1+entrySuffix)
	info, err := os.Stat(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(old, info.ModTime().Add(-time.Hour), info.ModTime().Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{MaxBytes: int64(len(payload))*2 + 10})
	if err := s2.Put(ctx, keyN(2), one); err != nil {
		t.Fatal(err)
	}
	if _, ok := getOK(t, s2, k1); ok {
		t.Error("older entry (by mtime) survived; LRU order not rebuilt from mtimes")
	}
	if _, ok := getOK(t, s2, k0); !ok {
		t.Error("newer entry (by mtime) evicted first")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	for _, bad := range []string{"", "UPPER", "with/slash", "..", "z-not-hex", strings.Repeat("a", 200)} {
		if err := s.Put(ctx, bad, testReport(1)); err == nil {
			t.Errorf("Put accepted invalid key %q", bad)
		}
		if _, ok := getOK(t, s, bad); ok {
			t.Errorf("Get hit invalid key %q", bad)
		}
	}
}

func TestTempFilesCleanedAtOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"deadbeef")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustOpen(t, dir, Options{})
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("leftover temp file survived Open: %v", err)
	}
}

func TestPutOverwriteRefreshesEntry(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	key := keyN(0)
	if err := s.Put(ctx, key, testReport(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, key, testReport(2)); err != nil {
		t.Fatal(err)
	}
	got, ok := getOK(t, s, key)
	if !ok || got.Cycles != 2 {
		t.Errorf("overwrite not visible: ok=%v rep=%+v", ok, got)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", s.Len())
	}
}

// TestPutIdenticalBytesSkipsRewrite: re-putting the same report (a
// taken-over claim whose stale holder finishes late: two nodes execute
// one content-addressed key and both upload) must not rewrite the file — only refresh recency —
// while a genuinely different payload still overwrites.
func TestPutIdenticalBytesSkipsRewrite(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := keyN(0)
	if err := s.Put(ctx, key, testReport(7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+entrySuffix)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.Put(ctx, key, testReport(7)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("identical re-put changed the file contents")
	}
	st := s.Stats()
	if st.DupPuts != 1 {
		t.Errorf("DupPuts = %d, want 1", st.DupPuts)
	}
	if st.Puts != 1 {
		t.Errorf("Puts = %d after duplicate, want 1 (the duplicate must not count as a write)", st.Puts)
	}
	// Recency refreshed: the mtime moved (or at least did not go backwards).
	info2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info2.ModTime().Before(info.ModTime()) {
		t.Error("duplicate put moved the mtime backwards")
	}
	if got, ok := getOK(t, s, key); !ok || got.Cycles != 7 {
		t.Errorf("entry unreadable after duplicate put: ok=%v rep=%+v", ok, got)
	}

	// A different report for the same key still overwrites.
	if err := s.Put(ctx, key, testReport(8)); err != nil {
		t.Fatal(err)
	}
	if got, ok := getOK(t, s, key); !ok || got.Cycles != 8 {
		t.Errorf("changed payload not written: ok=%v rep=%+v", ok, got)
	}
	if st := s.Stats(); st.Puts != 2 || st.DupPuts != 1 {
		t.Errorf("Puts=%d DupPuts=%d after overwrite, want 2 and 1", st.Puts, st.DupPuts)
	}
}
