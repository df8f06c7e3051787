package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuLayers are the packages a CPU sample can be charged to, in report
// order. physical and catalog are not in the issue's list but are where
// plan fingerprinting and the verifier's per-database catalogs run, so they
// are kept apart from cpu.other.
var cpuLayers = []string{
	"opt", "memo", "rules", "exec", "scalar", "logical", "datum", "fnv64",
	"rescache", "sql", "bind", "sqlgen", "qgen", "suite", "fuzz", "verify",
	"refengine", "physical", "catalog",
}

const internalPrefix = "qtrtest/internal/"

// profileCPU runs f under a CPU profile and returns the per-layer shares.
func profileCPU(f func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	stacks, err := readProfile(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	return foldStacks(stacks), nil
}

// stackSample is one profile sample: function names leaf first, and how
// many times the stack was observed.
type stackSample struct {
	frames []string
	count  int64
}

// foldStacks charges each sample to the package of the innermost
// qtrtest/internal frame on its stack, so map, allocation and write-barrier
// work is billed to the layer that caused it rather than to runtime.*.
// Samples with no such frame go to runtime_gc (background mark, sweep and
// scavenge workers) or other. malloc is an overlay, not part of the
// partition: the share of all samples with runtime.mallocgc on the stack.
func foldStacks(stacks []stackSample) map[string]float64 {
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range stacks {
		total += s.count
		layer, gc, malloc := "", false, false
		for _, fn := range s.frames {
			if layer == "" {
				if l := layerOf(fn); known[l] {
					layer = l
				}
			}
			switch fn {
			case "runtime.mallocgc":
				malloc = true
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				gc = true
			}
		}
		switch {
		case layer != "":
			counts[layer] += s.count
		case gc:
			counts["runtime_gc"] += s.count
		default:
			counts["other"] += s.count
		}
		if malloc {
			counts["malloc"] += s.count
		}
	}
	shares := make(map[string]float64, len(counts))
	if total == 0 {
		return shares
	}
	for k, c := range counts {
		shares[k] = float64(c) / float64(total)
	}
	return shares
}

// layerOf maps a function name such as
// "qtrtest/internal/core/suite.(*Graph).Run" to its package's last path
// element ("suite"); "" for functions outside qtrtest/internal.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if slash := strings.LastIndexByte(pkg, '/'); slash >= 0 {
		pkg = pkg[slash+1:]
	}
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	return pkg
}

// readProfile decodes the gzipped protobuf runtime/pprof writes, keeping
// only what folding needs: per sample, the function names leaf first and the
// first value (the sample count). It reads the five message kinds involved
// (Profile, Sample, Location, Line, Function) and skips every other field,
// so it needs no dependency beyond the standard library.
func readProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		strs    []string
		locFns  = make(map[uint64][]uint64) // location id -> function ids, innermost inlined callee first
		fnName  = make(map[uint64]uint64)   // function id -> string-table index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s rawSample
			gotValue := false
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					if b == nil {
						s.locs = append(s.locs, v)
						return nil
					}
					return eachVarint(b, func(v uint64) { s.locs = append(s.locs, v) })
				case 2: // value, packed or not; keep the first
					if b == nil {
						if !gotValue {
							s.count, gotValue = int64(v), true
						}
						return nil
					}
					return eachVarint(b, func(v uint64) {
						if !gotValue {
							s.count, gotValue = int64(v), true
						}
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Profile.function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if idx := fnName[fn]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with the field number and
// either its varint value (b == nil) or its length-delimited bytes. Fixed
// 32- and 64-bit fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errTruncated
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
