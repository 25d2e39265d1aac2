package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/metrics"
)

// FuzzDecodeEntry: decodeEntry never panics on any bytes; every entry Put
// writes (encodeEntry of the report's JSON) decodes to a report that
// re-marshals byte-identically; and that entry with any one byte changed
// decodes as corrupt or stale, never as a report. The report under test
// is the one data decodes to, as an entry or as a bare payload. Seeded
// with current entries, bare payloads, and a FormatVersion 1 entry.
func FuzzDecodeEntry(f *testing.F) {
	tt := testReport(7)
	tt.TwoTier = &metrics.TwoTierStats{Tier: "ECC", MemReads: 3, EnergyMem: 0.5}
	for _, rep := range []*metrics.Report{testReport(1), sampledReport(2), adaptiveReport(3), tt} {
		payload, err := json.Marshal(rep)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeEntry(payload), uint16(0), byte(1))
		f.Add(payload, uint16(headerSize+3), byte(0x80))
	}
	f.Add(formatV1Entry(f, testReport(1), 1), uint16(9), byte(4))
	f.Add([]byte("ICRS"), uint16(0), byte(0))
	f.Add([]byte{}, uint16(0), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, xor byte) {
		rep, err := decodeEntry(data)
		if err != nil {
			if !errors.Is(err, errCorrupt) && !errors.Is(err, errStale) {
				t.Fatalf("decode error is neither corrupt nor stale: %v", err)
			}
			rep = new(metrics.Report)
			if json.Unmarshal(data, rep) != nil {
				return
			}
		}
		payload, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("decoded report does not marshal: %v", err)
		}
		entry := encodeEntry(payload)
		got, err := decodeEntry(entry)
		if err != nil {
			t.Fatalf("entry as Put writes it rejected: %v\npayload: %s", err, payload)
		}
		again, err := json.Marshal(got)
		if err != nil || !bytes.Equal(again, payload) {
			t.Fatalf("round trip not byte-identical (%v)\nwant: %s\n got: %s", err, payload, again)
		}
		if xor == 0 {
			xor = 1
		}
		entry[int(pos)%len(entry)] ^= xor
		if _, err := decodeEntry(entry); !errors.Is(err, errCorrupt) && !errors.Is(err, errStale) {
			t.Fatalf("entry with byte %d changed decoded with err = %v, want corrupt or stale",
				int(pos)%len(entry), err)
		}
	})
}
