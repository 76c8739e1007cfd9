package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// A stdlib-only reader for the gzipped profile.proto that runtime/pprof
// writes, decoding just what the module attribution needs: each sample's
// stack (function names, innermost first) and its CPU nanoseconds.

type cpuSample struct {
	stack []string // innermost frame first, inlined frames expanded
	nanos int64
}

func decodeProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, fmt.Errorf("profile: sample with %d values, want [samples, cpu ns]", len(s.values))
		}
		cs := cpuSample{nanos: s.values[1]}
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				name := "?"
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				cs.stack = append(cs.stack, name)
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = varint(b)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

const repoPrefix = "repro/internal/"

// gcRoots mark the runtime's background collector goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// moduleOf charges a sample to the innermost repro/internal/<module> frame
// on its stack. Unlisted internal packages and the benchmark's own code go
// to other; stacks with no repo frame go to runtime.gc when a collector
// frame is on them and to runtime.sched otherwise.
func moduleOf(stack []string) string {
	harness := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			if moduleListed[mod] {
				return mod
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			harness = true
		}
	}
	if harness {
		return "other"
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "runtime.gc"
			}
		}
	}
	return "runtime.sched"
}

var moduleListed = func() map[string]bool {
	set := map[string]bool{}
	for _, m := range modules {
		set[m.Name] = true
	}
	return set
}()

// moduleNanos buckets samples by module.
func moduleNanos(samples []cpuSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[moduleOf(s.stack)] += s.nanos
	}
	return out
}

// writeFolded writes the samples as a host-time folded-stack file (root
// first, frames joined by ';', CPU microseconds as the count), the same
// format as the virtual-time .folded files, sorted by stack.
func writeFolded(path string, samples []cpuSample) error {
	agg := map[string]int64{}
	for _, s := range samples {
		fr := make([]string, len(s.stack))
		for i, fn := range s.stack {
			fr[len(s.stack)-1-i] = strings.ReplaceAll(fn, ";", ":")
		}
		agg[strings.Join(fr, ";")] += s.nanos
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, agg[k]/1000)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
