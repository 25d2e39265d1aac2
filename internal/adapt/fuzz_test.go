package adapt

import (
	"strconv"
	"strings"
	"testing"
)

// adaptSpec renders an accepted Config back into the -adapt key=value
// syntax, omitting zero (defaulted) fields.
func adaptSpec(c Config) string {
	parts := []string{"predictor=" + c.Predictor.String()}
	for _, kv := range []struct {
		key string
		val uint64
	}{
		{"epoch", c.Epoch},
		{"hysteresis", uint64(c.Hysteresis)},
		{"maxreplicas", uint64(c.MaxReplicas)},
		{"minwindow", c.MinWindow},
		{"maxwindow", c.MaxWindow},
	} {
		if kv.val != 0 {
			parts = append(parts, kv.key+"="+strconv.FormatUint(kv.val, 10))
		}
	}
	return strings.Join(parts, ",")
}

// FuzzParse: Parse never panics; every accepted spec's config survives a
// render-and-reparse unchanged, and the predictor's name alone parses to
// the same predictor (the name form behind SchemeName).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{"", "on", "decay", "ehc", "predictor=ehc,epoch=5000,hysteresis=3",
		"predictor=decay,maxreplicas=1,minwindow=500,maxwindow=8000", "epoch=10", "predictor=none",
		"predictor=decay,hysteresis=18446744073709551615", "predictor=decay,,", "predictor"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil {
			return
		}
		if !c.Enabled() {
			if c != (Config{}) {
				t.Fatalf("Parse(%q) = %+v: disabled but not zero", spec, c)
			}
			return
		}
		if c.Hysteresis < 0 || c.MaxReplicas < 0 {
			t.Fatalf("Parse(%q) = %+v: negative knob", spec, c)
		}
		again, err := Parse(adaptSpec(c))
		if err != nil {
			t.Fatalf("Parse(%q) accepted %+v, but its rendering %q is rejected: %v", spec, c, adaptSpec(c), err)
		}
		if again != c {
			t.Fatalf("Parse(%q) = %+v; re-parsing %q gives %+v", spec, c, adaptSpec(c), again)
		}
		named, err := Parse(c.Predictor.String())
		if err != nil || named.Predictor != c.Predictor || named.SchemeName() != c.SchemeName() {
			t.Fatalf("predictor name %q parses to %+v (%v), want predictor %v", c.Predictor.String(), named, err, c.Predictor)
		}
	})
}
