package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the runtime/pprof CPU profile of a traced run (a
// gzipped profile.proto message) just far enough to attribute samples: a
// sample's stack is its function names, leaf first, with inlined frames
// expanded innermost first.

type sample struct {
	weight int64 // the sample's last value: CPU nanoseconds in a CPU profile
	stack  []string
}

// layers are the simulator packages that get a self-time share, by their
// last import-path element under repro/internal/.
var layers = []string{"workload", "cpu", "branch", "core", "ecc", "cache", "tier", "adapt", "fault", "sim"}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in its stack: background and assisted marking, sweeping, scavenging.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.sweepone":       true,
	"runtime.gcStart":        true,
}

// bucketOf names the share a sample's time is charged to: "runtime.gc"
// when a GC frame is anywhere on the stack; "runtime" when the leaf is in
// the Go runtime (allocation, maps, memmove, scheduling); else the
// simulator layer of the innermost frame in one, so that standard-library
// helpers such as math/rand count toward the layer that called them; else
// "residual".
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime.gc"
		}
	}
	if len(stack) == 0 {
		return "residual"
	}
	if pkg := packageOf(stack[0]); pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		if name, ok := strings.CutPrefix(packageOf(fn), "repro/internal/"); ok {
			for _, l := range layers {
				if name == l {
					return l
				}
			}
		}
	}
	return "residual"
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/cpu.(*Core).Run" or "runtime.mallocgc".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// shares buckets the samples; the values sum to 1 over every layer,
// "runtime", "runtime.gc" and "residual".
func shares(samples []sample) map[string]float64 {
	out := map[string]float64{"runtime": 0, "runtime.gc": 0, "residual": 0}
	for _, l := range layers {
		out[l] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.weight) / float64(total)
	}
	return out
}

// kernelFrames name the calibration kernel (calib.go) in a built binary
// and in the test binary.
var kernelFrames = map[string]bool{"main.kernel": true, "repro/perf.kernel": true}

// withoutKernel drops the samples of the calibration kernel, which is the
// benchmark's work, not the program's.
func withoutKernel(samples []sample) []sample {
	var out []sample
next:
	for _, s := range samples {
		for _, fn := range s.stack {
			if kernelFrames[fn] {
				continue next
			}
		}
		out = append(out, s)
	}
	return out
}

// underFrame is the share of samples with fn anywhere on the stack.
func underFrame(samples []sample, fn string) float64 {
	var hit, total int64
	for _, s := range samples {
		total += s.weight
		for _, f := range s.stack {
			if f == fn {
				hit += s.weight
				break
			}
		}
	}
	return ratio(float64(hit), float64(total))
}

// decodeProfile parses a (possibly gzipped) profile.proto message.
func decodeProfile(data []byte) ([]sample, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		strs    []string
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnNames = map[uint64]uint64{}   // function id → string-table index
	)
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var rs rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					rs.locs = appendPacked(rs.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 {
						rs.weight = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			raws = append(raws, rs)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{weight: rs.weight}
		for _, loc := range rs.locs {
			for _, fn := range locFns[loc] {
				if idx := fnNames[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendPacked appends a repeated scalar field that arrived either as one
// varint (v, with b nil) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// fields walks a protobuf message, calling fn with each field number and
// either its varint value (b nil) or its length-delimited bytes.
func fields(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
