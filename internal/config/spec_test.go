package config

import (
	"strings"
	"testing"

	"repro/internal/adapt"
)

func TestParseAdapt(t *testing.T) {
	cases := []struct {
		in   string
		want adapt.Config
		err  bool
	}{
		{"", adapt.Config{}, false},
		{"on", adapt.Config{Predictor: adapt.PredictorDecay}, false},
		{"decay", adapt.Config{Predictor: adapt.PredictorDecay}, false},
		{"ehc", adapt.Config{Predictor: adapt.PredictorEHC}, false},
		{"predictor=ehc,epoch=5000", adapt.Config{Predictor: adapt.PredictorEHC, Epoch: 5000}, false},
		{"predictor=decay,hysteresis=3,maxreplicas=1,minwindow=100,maxwindow=9000",
			adapt.Config{Predictor: adapt.PredictorDecay, Hysteresis: 3, MaxReplicas: 1, MinWindow: 100, MaxWindow: 9000}, false},
		{"epoch=5000", adapt.Config{}, true},            // no predictor selected
		{"predictor=foo", adapt.Config{}, true},         // unknown predictor
		{"predictor=decay,bad=1", adapt.Config{}, true}, // unknown key
		{"predictor=decay,epoch=x", adapt.Config{}, true},
		{"predictor=decay,hysteresis=-1", adapt.Config{}, true},          // a count, not a signed number
		{"predictor=decay,maxreplicas=2147483648", adapt.Config{}, true}, // would wrap a 32-bit int
		{"gibberish", adapt.Config{}, true},
	}
	for _, tc := range cases {
		got, err := ParseAdapt(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseAdapt(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseAdapt(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestSpecUnknownKeyNamesKeys: an unknown key's error lists the grammar's
// keys, read from the spec tags in declaration order (TwoTier.Fault's
// after TwoTier's own).
func TestSpecUnknownKeyNamesKeys(t *testing.T) {
	for _, tc := range []struct {
		parse func(string) error
		keys  string
	}{
		{func(s string) error { _, err := ParseSample(s); return err }, "period, detail, warmup, conf"},
		{func(s string) error { _, err := ParseAdapt(s); return err }, "predictor, epoch, hysteresis, maxreplicas, minwindow, maxwindow"},
		{func(s string) error { _, err := ParseTwoTier(s); return err }, "protect, replicate, victim, decay, cross, latency, fault, prob, faultseed"},
	} {
		err := tc.parse("bogus=1")
		if err == nil || !strings.Contains(err.Error(), `unknown key "bogus" (want `+tc.keys+")") {
			t.Errorf("unknown key error %v does not list %s", err, tc.keys)
		}
	}
}
