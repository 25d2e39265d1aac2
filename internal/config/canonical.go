package config

import (
	"encoding/binary"
	"math"
	"reflect"

	"repro/internal/core"
)

// AppendCanonical appends a canonical encoding of (m, r) to b: every field
// of both, walked by reflection in declaration order, each number and bool
// as 8 little-endian bytes and each string or slice behind its length. The
// layout is fixed by the types, so equal inputs encode equal and distinct
// inputs never collide by concatenation. A new field is covered the moment
// it is declared.
//
// ok is false when an input hides behaviour the encoding cannot see: a
// non-nil func, a hint policy other than core.ReplicateAll or a non-nil
// *core.RangePolicy, or a field of a kind with no encoding (a pointer,
// map, array or channel). Such a run must not be memoized or pooled.
func AppendCanonical(b []byte, m Machine, r Run) ([]byte, bool) {
	b, ok := appendValue(b, reflect.ValueOf(&m).Elem())
	if !ok {
		return b, false
	}
	return appendValue(b, reflect.ValueOf(&r).Elem())
}

func appendValue(b []byte, v reflect.Value) ([]byte, bool) {
	u64 := binary.LittleEndian.AppendUint64
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return u64(b, 1), true
		}
		return u64(b, 0), true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return u64(b, uint64(v.Int())), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return u64(b, v.Uint()), true
	case reflect.Float32, reflect.Float64:
		return u64(b, math.Float64bits(v.Float())), true
	case reflect.String:
		return append(u64(b, uint64(v.Len())), v.String()...), true
	case reflect.Slice:
		b = u64(b, uint64(v.Len()))
		for i := range v.Len() {
			var ok bool
			if b, ok = appendValue(b, v.Index(i)); !ok {
				return b, false
			}
		}
		return b, true
	case reflect.Struct:
		for i := range v.NumField() {
			var ok bool
			if b, ok = appendValue(b, v.Field(i)); !ok {
				return b, false
			}
		}
		return b, true
	case reflect.Func:
		return u64(b, 0), v.IsNil()
	case reflect.Interface:
		// A tag per known policy, then its value. A typed nil
		// *core.RangePolicy has no value to encode and is refused: it
		// must not share a key with a run that has no policy.
		switch v.Interface().(type) {
		case nil:
			return u64(b, 0), true
		case core.ReplicateAll:
			return u64(b, 1), true
		case *core.RangePolicy:
			return appendValue(u64(b, 2), v.Elem().Elem())
		}
	}
	return b, false
}
