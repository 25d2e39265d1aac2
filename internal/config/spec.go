package config

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fault"
)

// parseSpec sets the fields of the struct dst points to from a
// comma-separated key=value spec: the one grammar of the -sample, -adapt
// and -twotier specs. A field's `spec:"key"` tag names its key; an
// untagged struct field contributes its own fields' keys. Spaces around
// elements, keys and values are ignored, and a repeated key keeps its
// last value. A value is read by its field's type: an enum by its own
// parser, a bool, uint64 or float64 as strconv reads it, an int64 as a
// signed decimal, and an int as a count (a decimal in [0, MaxInt32], so
// no platform wraps it). seen lists the keys the spec set, in order.
func parseSpec(dst any, spec string) (seen []string, err error) {
	keys, fields := specFields(reflect.ValueOf(dst).Elem(), nil, nil)
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		i := slices.Index(keys, key)
		if i < 0 {
			return nil, fmt.Errorf("unknown key %q (want %s)", key, strings.Join(keys, ", "))
		}
		if err := setSpecValue(fields[i], val); err != nil {
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
		seen = append(seen, key)
	}
	return seen, nil
}

// specFields appends the spec keys of struct v, and their fields, in
// declaration order.
func specFields(v reflect.Value, keys []string, fields []reflect.Value) ([]string, []reflect.Value) {
	for i := range v.NumField() {
		if key := v.Type().Field(i).Tag.Get("spec"); key != "" {
			keys, fields = append(keys, key), append(fields, v.Field(i))
		} else if v.Field(i).Kind() == reflect.Struct {
			keys, fields = specFields(v.Field(i), keys, fields)
		}
	}
	return keys, fields
}

func setSpecValue(f reflect.Value, val string) (err error) {
	switch p := f.Addr().Interface().(type) {
	case *core.Protection:
		*p, err = core.ParseProtection(val)
	case *core.VictimPolicy:
		*p, err = core.ParseVictimPolicy(val)
	case *fault.Model:
		*p, err = fault.ParseModel(val)
	case *adapt.PredictorKind:
		*p, err = adapt.ParsePredictor(val)
	case *bool:
		*p, err = strconv.ParseBool(val)
	case *uint64:
		*p, err = strconv.ParseUint(val, 10, 64)
	case *int64:
		*p, err = strconv.ParseInt(val, 10, 64)
	case *int:
		var n uint64
		n, err = strconv.ParseUint(val, 10, 31)
		*p = int(n)
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
	default:
		panic(fmt.Sprintf("config: spec field of type %s", f.Type()))
	}
	return err
}

// ParseSample parses the textual sampling spec every entry point shares
// (the icrsim/icrbench/icrd -sample flag and the icrd request field).
// "" disables sampling; "on" (or "default") selects the validated default
// geometry; otherwise the spec sets SampleConfig's keys — period, detail,
// warmup (instruction counts) and conf (confidence percent: 90, 95, or
// 99) — and must set a nonzero period.
func ParseSample(v string) (SampleConfig, error) {
	switch v {
	case "":
		return SampleConfig{}, nil
	case "on", "default":
		return SampleConfig{Period: DefaultSamplePeriod}, nil
	}
	var sc SampleConfig
	seen, err := parseSpec(&sc, v)
	switch {
	case err != nil:
		return SampleConfig{}, fmt.Errorf("config: sample spec %q: %w", v, err)
	case slices.Contains(seen, "conf") && sc.Confidence != 90 && sc.Confidence != 95 && sc.Confidence != 99:
		return SampleConfig{}, fmt.Errorf("config: sample spec %q: confidence %d: want 90, 95, or 99", v, sc.Confidence)
	case !sc.Enabled():
		return SampleConfig{}, fmt.Errorf(`config: sample spec %q sets no period: sampling needs period=N (or "on")`, v)
	}
	return sc, nil
}

// ParseAdapt parses the textual adapt spec every entry point shares (the
// icrsim -adapt flag and the icrd request field). "" disables the
// controller; "decay", "ehc", or "on" (= decay) select a predictor with
// default knobs; otherwise the spec sets adapt.Config's keys — predictor
// (decay|ehc), epoch (cycles), hysteresis (epochs), maxreplicas,
// minwindow, maxwindow (cycles) — and must select a predictor.
func ParseAdapt(v string) (adapt.Config, error) {
	switch v {
	case "":
		return adapt.Config{}, nil
	case "on", "decay":
		return adapt.Config{Predictor: adapt.PredictorDecay}, nil
	case "ehc":
		return adapt.Config{Predictor: adapt.PredictorEHC}, nil
	}
	var c adapt.Config
	if _, err := parseSpec(&c, v); err != nil {
		return adapt.Config{}, fmt.Errorf("config: adapt spec %q: %w", v, err)
	}
	if !c.Enabled() {
		return adapt.Config{}, fmt.Errorf("config: adapt spec %q selects no predictor: add predictor=decay|ehc", v)
	}
	return c, nil
}
