package config

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/adapt"
)

// renderSpec renders an accepted spec struct (SampleConfig, TwoTier,
// adapt.Config) back into the key=value syntax, walking the spec tags
// parseSpec reads and omitting zero (defaulted) fields. Enums render by
// their String, which their parsers invert.
func renderSpec(v any) string {
	var parts []string
	keys, fields := specFields(reflect.ValueOf(v), nil, nil)
	for i, f := range fields {
		if !f.IsZero() {
			parts = append(parts, keys[i]+"="+fmt.Sprint(f.Interface()))
		}
	}
	return strings.Join(parts, ",")
}

// FuzzParseSample: ParseSample never panics, and every accepted spec's
// config survives a render-and-reparse unchanged.
func FuzzParseSample(f *testing.F) {
	for _, seed := range []string{"", "on", "default", "period=50000", "period=100000,detail=2000,warmup=500,conf=99",
		" period = 10 , conf=90", "period=0", "conf=95", "period=18446744073709551615", "period=1,,", "x=1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := ParseSample(spec)
		if err != nil || !sc.Enabled() {
			return
		}
		again, err := ParseSample(renderSpec(sc))
		if err != nil {
			t.Fatalf("ParseSample(%q) accepted %+v, but its rendering %q is rejected: %v", spec, sc, renderSpec(sc), err)
		}
		if again != sc {
			t.Fatalf("ParseSample(%q) = %+v; re-parsing %q gives %+v", spec, sc, renderSpec(sc), again)
		}
	})
}

// twoTierShortcut maps a TwoTier label to the -twotier shortcut that
// expands to a configuration carrying it.
var twoTierShortcut = map[string]string{
	"off": "off", "P": "parity", "ECC": "ecc", "ICR-P": "icr", "ICR-ECC": "icr-ecc",
}

// FuzzParseTwoTier: ParseTwoTier never panics; every accepted spec's
// config passes Validate, is already normalized, survives a
// render-and-reparse unchanged, and its Name, where a shortcut spells
// it, names what that shortcut parses to.
func FuzzParseTwoTier(f *testing.F) {
	for _, seed := range []string{"", "off", "parity", "ecc", "icr", "icr-ecc",
		"protect=parity,replicate=true,victim=dead-first,decay=1000,cross=true",
		"protect=ecc,latency=4,fault=column,prob=0.001,faultseed=9", "protect=P,prob=1e-3",
		"protect=parity,prob=nan", "protect=parity,prob=-1", "replicate=true", "protect=parity,cross=true",
		"protect=ecc,victim=replica-only", "protect=parity,,", "protect",
		"protect=ecc, replicate=true", " protect = parity , prob = 1e-3 ", "protect=parity,fault=column",
		"protect=parity,faultseed=3", "protect=parity,decay=500"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tt, err := ParseTwoTier(spec)
		if err != nil {
			return
		}
		if err := tt.Validate(); err != nil {
			t.Fatalf("ParseTwoTier(%q) = %+v, which fails Validate: %v", spec, tt, err)
		}
		if n := tt.Normalized(); !reflect.DeepEqual(n, tt) {
			t.Fatalf("ParseTwoTier(%q) = %+v, not normalized (%+v)", spec, tt, n)
		}
		again, err := ParseTwoTier(renderSpec(tt))
		if err != nil {
			t.Fatalf("ParseTwoTier(%q) accepted %+v, but its rendering %q is rejected: %v", spec, tt, renderSpec(tt), err)
		}
		if !reflect.DeepEqual(again, tt) {
			t.Fatalf("ParseTwoTier(%q) = %+v; re-parsing %q gives %+v", spec, tt, renderSpec(tt), again)
		}
		if short, ok := twoTierShortcut[tt.Name()]; ok {
			if named, err := ParseTwoTier(short); err != nil || named.Name() != tt.Name() {
				t.Fatalf("shortcut %q for %s parses to %s (%v)", short, tt.Name(), named.Name(), err)
			}
		}
	})
}

// FuzzParseAdapt: ParseAdapt never panics; every accepted spec's config
// survives a render-and-reparse unchanged, and the predictor's name alone
// parses to the same predictor (the name form behind SchemeName).
func FuzzParseAdapt(f *testing.F) {
	for _, seed := range []string{"", "on", "decay", "ehc", "predictor=ehc,epoch=5000,hysteresis=3",
		"predictor=decay,maxreplicas=1,minwindow=500,maxwindow=8000", "epoch=10", "predictor=none",
		"predictor=decay,hysteresis=18446744073709551615", "predictor=decay,,", "predictor"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseAdapt(spec)
		if err != nil {
			return
		}
		if !c.Enabled() {
			if c != (adapt.Config{}) {
				t.Fatalf("ParseAdapt(%q) = %+v: disabled but not zero", spec, c)
			}
			return
		}
		if c.Hysteresis < 0 || c.MaxReplicas < 0 {
			t.Fatalf("ParseAdapt(%q) = %+v: negative knob", spec, c)
		}
		again, err := ParseAdapt(renderSpec(c))
		if err != nil {
			t.Fatalf("ParseAdapt(%q) accepted %+v, but its rendering %q is rejected: %v", spec, c, renderSpec(c), err)
		}
		if again != c {
			t.Fatalf("ParseAdapt(%q) = %+v; re-parsing %q gives %+v", spec, c, renderSpec(c), again)
		}
		named, err := ParseAdapt(c.Predictor.String())
		if err != nil || named.Predictor != c.Predictor || named.SchemeName() != c.SchemeName() {
			t.Fatalf("predictor name %q parses to %+v (%v), want predictor %v", c.Predictor.String(), named, err, c.Predictor)
		}
	})
}
