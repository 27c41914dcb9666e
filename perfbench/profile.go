package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// selfTime folds a runtime/pprof CPU profile by the Go package of each
// sample's leaf frame and returns CPU nanoseconds per package row, plus
// the total. A leaf in another standard-library package (math, sort,
// sync) is charged to its nearest caller in this module; the Go runtime
// keeps its own row, and samples with no module frame at all go to
// "other".
func selfTime(path string) (rows map[string]float64, total float64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, 0, fmt.Errorf("profile %s: %w", path, err)
	}
	rows = map[string]float64{}
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				stack = append(stack, p.strings[p.functions[fn]])
			}
		}
		v := float64(s.values[p.cpuIndex])
		rows[foldRow(stack)] += v
		total += v
	}
	return rows, total, nil
}

// modulePrefix marks this module's packages.
const modulePrefix = "repro/"

// foldRow names the row a sample's stack (leaf first) is charged to.
func foldRow(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := pkgOf(stack[0]); leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") ||
		strings.HasPrefix(leaf, "internal/runtime/") {
		return "runtime"
	}
	for _, fn := range stack {
		if pkg := pkgOf(fn); strings.HasPrefix(pkg, modulePrefix) {
			return pkg[strings.LastIndex(pkg, "/")+1:]
		}
	}
	return "other"
}

// pkgOf extracts the import path from a symbol such as
// "repro/internal/router.(*Router).Tick" or "math.Exp".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// profile holds the parts of a profile.proto message selfTime needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name's string-table index
	strings   []string
	cpuIndex  int
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// parseProfile decodes the profile.proto fields listed in profile: sample
// (2), location (4), function (5), string_table (6) and sample_type (1),
// whose "cpu" entry selects the value summed.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}, cpuIndex: -1}
	var sampleTypes [][]byte
	err := fields(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 1:
			sampleTypes = append(sampleTypes, msg)
		case 2:
			var s sample
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return varints(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, st := range sampleTypes {
		err := fields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 && int(v) < len(p.strings) && p.strings[v] == "cpu" {
				p.cpuIndex = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("no cpu sample type")
	}
	for _, s := range p.samples {
		if len(s.values) <= p.cpuIndex {
			return nil, errors.New("sample without a cpu value")
		}
		for _, loc := range s.locs {
			for _, fn := range p.locations[loc] {
				if int(p.functions[fn]) >= len(p.strings) {
					return nil, errors.New("function name outside the string table")
				}
			}
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("truncated fixed field")
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (msg) or not (v).
func varints(v uint64, msg []byte, fn func(uint64)) error {
	if msg == nil {
		fn(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		msg = msg[n:]
	}
	return nil
}
