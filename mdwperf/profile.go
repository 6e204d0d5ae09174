package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// CPU self time by package, from a runtime/pprof CPU profile. The profile is
// the gzipped protobuf of github.com/google/pprof's profile.proto; the
// standard library writes it but has no reader, so the few messages needed
// (samples, locations, functions, the string table) are decoded here.

// cpuProfile records a CPU profile of everything fn does.
func cpuProfile(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// cpuBuckets maps packages, with the packages below them, to the per-layer
// cpu.* buckets; anything not listed lands in cpu.other_frac.
var cpuBuckets = []struct{ prefix, bucket string }{
	{"mdworm/internal/engine", "engine"},
	{"mdworm/internal/switches/centralbuf", "centralbuf"},
	{"mdworm/internal/switches/inputbuf", "inputbuf"},
	{"mdworm/internal/nic", "nic"},
	{"mdworm/internal/routing", "routing"},
	{"mdworm/internal/collective", "collective"},
	{"mdworm/internal/core", "core"},
	{"mdworm/internal/obs", "obs"},
	{"mdworm/internal/service", "service"},
	{"mdworm/internal/cluster", "cluster"},
	{"encoding/json", "stdlib_io"},
	{"encoding/hex", "stdlib_io"},
	{"crypto", "stdlib_io"},
	{"net", "stdlib_io"}, // net, net/http, net/textproto, ...
	{"vendor/golang.org/x/net", "stdlib_io"},
	{"syscall", "stdlib_io"},
	{"internal/poll", "stdlib_io"},
	{"internal/syscall", "stdlib_io"},
	{"bufio", "stdlib_io"},
	{"os", "stdlib_io"},
	{"io", "stdlib_io"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
	{"sync", "runtime"},
	{"internal/sync", "runtime"},
}

var cpuBucketNames = []string{"engine", "centralbuf", "inputbuf", "nic", "routing", "collective",
	"core", "obs", "service", "cluster", "stdlib_io", "runtime", "other"}

// pkgOf returns the package path of a symbol name such as
// "mdworm/internal/engine.(*Link).Send", "mdworm/internal/engine.(*ring[...]).len"
// or "runtime.mallocgc".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may hold package paths themselves
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func bucketOf(pkg string) string {
	for _, b := range cpuBuckets {
		if pkg == b.prefix || strings.HasPrefix(pkg, b.prefix+"/") {
			return b.bucket
		}
	}
	return "other"
}

// setCPUShares sets the cpu.*_frac metrics from a profile and notes the
// largest self-time packages.
func setCPUShares(r *run, prof []byte) error {
	self, err := selfTimeByPackage(prof)
	if err != nil {
		return err
	}
	total := 0.0
	shares := map[string]float64{}
	for pkg, v := range self {
		total += v
		shares[bucketOf(pkg)] += v
	}
	if total == 0 {
		return errors.New("CPU profile holds no samples")
	}
	for _, b := range cpuBucketNames {
		r.set("cpu."+b+"_frac", shares[b]/total)
	}
	pkgs := make([]string, 0, len(self))
	for p := range self {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return self[pkgs[i]] > self[pkgs[j]] })
	var top []string
	for _, p := range pkgs[:min(8, len(pkgs))] {
		top = append(top, fmt.Sprintf("%s %.1f%%", p, 100*self[p]/total))
	}
	r.note("cpu self time by package: %s", strings.Join(top, ", "))
	r.samples["cpu.profile_ms"] = int(total / 1e6)
	return nil
}

// selfTimeByPackage returns CPU nanoseconds of self time per package: each
// sample's value is charged to the innermost function of its leaf location.
func selfTimeByPackage(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][]byte
		samples   [][]byte
		locFn     = map[uint64]uint64{} // location id -> innermost function id
		fnNameIdx = map[uint64]uint64{} // function id -> string index
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			types = append(types, b)
		case 2:
			samples = append(samples, b)
		case 4:
			var id, fn uint64
			first := true
			err := pbFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					if first { // the first line is the innermost inlined function
						first = false
						return pbFields(lb, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnNameIdx[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Charge the "cpu" (nanoseconds) value; fall back to the last type.
	valIdx := len(types) - 1
	for i, t := range types {
		err := pbFields(t, func(n int, v uint64, _ []byte) error {
			if n == 1 && int(v) < len(strs) && strs[v] == "cpu" {
				valIdx = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	out := map[string]float64{}
	for _, s := range samples {
		var locs, vals []uint64
		err := pbFields(s, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = pbRepeated(locs, v, b)
			case 2:
				vals = pbRepeated(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(locs) == 0 || valIdx < 0 || valIdx >= len(vals) {
			continue
		}
		name := "unknown"
		if idx, ok := fnNameIdx[locFn[locs[0]]]; ok && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[pkgOf(name)] += float64(vals[valIdx])
	}
	return out, nil
}

// pbRepeated appends one repeated scalar field occurrence: a single varint
// (b == nil) or a packed run of varints.
func pbRepeated(dst []uint64, v uint64, b []byte) []uint64 {
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

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value (b == nil) or the bytes of a
// length-delimited field. Fixed-width fields are skipped.
func pbFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
