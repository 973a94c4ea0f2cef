package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the gzip-compressed protobuf that runtime/pprof writes, just
// enough of it to charge each CPU sample to a layer: the profile's samples,
// locations, functions and string table (profile.proto fields 2, 4, 5, 6).

var errTruncated = errors.New("pprof: truncated message")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited payload. Fixed-width fields are skipped over.
func (p *pbuf) next() (field int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	skip := func(n int) error {
		if len(p.b) < n {
			return errTruncated
		}
		p.b = p.b[n:]
		return nil
	}
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, errTruncated
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, payload, err
}

// uints reads a repeated integer field, packed (payload) or not (v).
func uints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := pbuf{payload}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// profSample is one stack with its first value (the sample count of a CPU
// profile); funcs lists function names from the leaf outwards.
type profSample struct {
	funcs []string
	count uint64
}

func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string index
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		field, _, msg, err := p.next()
		if err != nil {
			return nil, err
		}
		m := pbuf{msg}
		switch field {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			var vals []uint64
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, pl)
				case 2:
					vals, err = uints(vals, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.count = vals[0]
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 { function_id = 1 }
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, pl, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := pbuf{pl}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// hostBuckets are the hostshare.* layers, and pkgBucket maps this repo's
// packages onto them. isa is the cpu frontend's decoder; packages off the
// list (asm, barrier, kernels, faults, ...) land in "other".
var hostBuckets = []string{"cpu", "mem", "interconnect", "filter", "hwnet", "core", "vet", "simd_harness", "gc", "other"}

var pkgBucket = map[string]string{
	"cpu": "cpu", "isa": "cpu", "mem": "mem", "interconnect": "interconnect",
	"filter": "filter", "hwnet": "hwnet", "core": "core", "vet": "vet",
	"simd": "simd_harness", "harness": "simd_harness",
}

// gcFrames mark a stack with no frame of this repo as garbage collection.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcAssistAlloc", "runtime.gcStart", "runtime.gcMarkTermination"}

// bucketOf charges a stack to the innermost repro/internal/<pkg> frame.
func bucketOf(funcs []string) string {
	const prefix = "repro/internal/"
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			if b, ok := pkgBucket[pkg]; ok {
				return b
			}
			return "other"
		}
	}
	for _, f := range funcs {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "gc"
			}
		}
	}
	return "other"
}

// hostShares returns each bucket's share of the samples in percent, and the
// sample count.
func hostShares(samples []profSample) (map[string]float64, uint64) {
	counts := make(map[string]uint64)
	var total uint64
	for _, s := range samples {
		counts[bucketOf(s.funcs)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		if total > 0 {
			shares[b] = 100 * float64(counts[b]) / float64(total)
		}
	}
	return shares, total
}
