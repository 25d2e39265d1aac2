package cliflag

import (
	"strings"
	"testing"
)

// FuzzParseStore: ParseStore never panics, and what it accepts is one of
// its three documented shapes.
func FuzzParseStore(f *testing.F) {
	for _, seed := range []string{"", "  ", "none", "disk:/tmp/s", "disk:", "/data/results", "./x", "results",
		"shards:h1:8080,h2:8080", "shards:", "shards: , ,h", "shard:h1", "s3:bucket", "C:\\store", ":x", "disk:shards:"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sp, err := ParseStore(spec)
		if err != nil {
			return
		}
		switch sp.Kind {
		case "none":
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("ParseStore(%q) = none for a non-empty spec", spec)
			}
		case "disk":
			if sp.Path == "" {
				t.Fatalf("ParseStore(%q) = disk with no path", spec)
			}
		case "shards":
			if len(sp.Shards) == 0 {
				t.Fatalf("ParseStore(%q) = shards with no hosts", spec)
			}
			for _, h := range sp.Shards {
				if h == "" || h != strings.TrimSpace(h) {
					t.Fatalf("ParseStore(%q): shard host %q is empty or padded", spec, h)
				}
			}
		default:
			t.Fatalf("ParseStore(%q) = unknown kind %q", spec, sp.Kind)
		}
	})
}
