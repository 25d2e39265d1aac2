package config

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// sampleSpec renders an accepted SampleConfig back into the -sample
// syntax, key by key, omitting zero (defaulted) fields.
func sampleSpec(sc SampleConfig) string {
	parts := []string{"period=" + strconv.FormatUint(sc.Period, 10)}
	if sc.Detail != 0 {
		parts = append(parts, "detail="+strconv.FormatUint(sc.Detail, 10))
	}
	if sc.Warmup != 0 {
		parts = append(parts, "warmup="+strconv.FormatUint(sc.Warmup, 10))
	}
	if sc.Confidence != 0 {
		parts = append(parts, "conf="+strconv.Itoa(sc.Confidence))
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
		again, err := ParseSample(sampleSpec(sc))
		if err != nil {
			t.Fatalf("ParseSample(%q) accepted %+v, but its rendering %q is rejected: %v", spec, sc, sampleSpec(sc), err)
		}
		if again != sc {
			t.Fatalf("ParseSample(%q) = %+v; re-parsing %q gives %+v", spec, sc, sampleSpec(sc), again)
		}
	})
}

// twoTierSpec renders an accepted (normalized) TwoTier back into the
// -twotier key=value syntax, omitting zero fields.
func twoTierSpec(t TwoTier) string {
	if !t.Enabled() {
		return "off"
	}
	parts := []string{"protect=" + t.Protect.String()}
	if t.Replicate {
		parts = append(parts, "replicate=true", "victim="+t.Victim.String())
	}
	if t.DecayWindow != 0 {
		parts = append(parts, "decay="+strconv.FormatUint(t.DecayWindow, 10))
	}
	if t.CrossTier {
		parts = append(parts, "cross=true")
	}
	if t.ExtraLatency != 0 {
		parts = append(parts, "latency="+strconv.FormatUint(t.ExtraLatency, 10))
	}
	if t.Fault.Prob != 0 {
		parts = append(parts, "fault="+t.Fault.Model.String(), "prob="+strconv.FormatFloat(t.Fault.Prob, 'g', -1, 64))
	}
	if t.Fault.Seed != 0 {
		parts = append(parts, "faultseed="+strconv.FormatInt(t.Fault.Seed, 10))
	}
	return strings.Join(parts, ",")
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
		again, err := ParseTwoTier(twoTierSpec(tt))
		if err != nil {
			t.Fatalf("ParseTwoTier(%q) accepted %+v, but its rendering %q is rejected: %v", spec, tt, twoTierSpec(tt), err)
		}
		if !reflect.DeepEqual(again, tt) {
			t.Fatalf("ParseTwoTier(%q) = %+v; re-parsing %q gives %+v", spec, tt, twoTierSpec(tt), again)
		}
		if short, ok := twoTierShortcut[tt.Name()]; ok {
			if named, err := ParseTwoTier(short); err != nil || named.Name() != tt.Name() {
				t.Fatalf("shortcut %q for %s parses to %s (%v)", short, tt.Name(), named.Name(), err)
			}
		}
	})
}
