package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped protobuf CPU profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), enough to attribute
// every sample's leaf frame to a function name. The module has no
// dependencies, so this stands in for the pprof package.

// protoField is one decoded field: its number and either a varint value or
// a length-delimited payload.
type protoField struct {
	num   int
	value uint64
	bytes []byte // non-nil for wire type 2
}

var errProto = errors.New("malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// walkProto calls fn for every field of one message.
func walkProto(b []byte, fn func(f protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.value, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			f.bytes, b = rest[:n:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.bytes == nil {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// leafWeights parses a CPU profile and returns, per leaf function name, the
// summed value of the profile's last sample type (CPU nanoseconds).
func leafWeights(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value uint64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf-most function id
		funcName = map[uint64]uint64{} // function id -> string table index
		strs     []string
	)
	err = walkProto(raw, func(f protoField) error {
		switch f.num {
		case 2: // Sample
			var locs, vals []uint64
			if err := walkProto(f.bytes, func(g protoField) (err error) {
				switch g.num {
				case 1:
					locs, err = repeatedVarints(locs, g)
				case 2:
					vals, err = repeatedVarints(vals, g)
				}
				return err
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], value: vals[len(vals)-1]})
			}
		case 4: // Location: the first Line is the innermost (inlined) frame
			var id, fn uint64
			seenLine := false
			if err := walkProto(f.bytes, func(g protoField) error {
				switch {
				case g.num == 1:
					id = g.value
				case g.num == 4 && !seenLine:
					seenLine = true
					return walkProto(g.bytes, func(h protoField) error {
						if h.num == 1 {
							fn = h.value
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := walkProto(f.bytes, func(g protoField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) && strs[i] != "" {
			name = strs[i]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

// Runtime leaf frames are split by what the time was spent on: handing
// control between simulated processes (goroutine park/ready, channels,
// futex) or managing memory (allocation, zeroing, marking, sweeping).
var (
	schedWords = []string{"futex", "park", "chan", "schedule", "findRunnable", "runq", "ready", "mcall",
		"wakep", "stopm", "startm", "note", "lock", "osyield", "usleep", "netpoll", "stealWork", "execute",
		"gosched", "spinning", "pidle", "casgstatus", "gogo", "selectgo", "sema", "goexit", "newproc", "gfget", "gfput",
		"nanotime", "guintptr", "Sudog", "timeHistogram", "dropg"}
	gcWords = []string{"malloc", "memclr", "gc", "scan", "grey", "mark", "sweep", "heapBits", "scavenge",
		"nextFree", "mcache", "mcentral", "mheap", "mspan", "wbBuf", "pageAlloc", "sysUsed", "sysUnused",
		"madvise", "mmap", "growslice", "newobject", "makeslice", "newarray", "makemap", "bulkBarrier", "typedmemmove"}
)

func containsAny(s string, words []string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// layerOf maps a function name to the layer (package) that owns it.
func layerOf(fn string) string {
	const internal = "oasis/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		return rest[:strings.IndexAny(rest+".", "./")]
	case strings.HasPrefix(fn, "oasis."):
		return "topology"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "oasis/bench."):
		return "bench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		name := fn[strings.LastIndex(fn, "/")+1:]
		switch {
		case containsAny(name, gcWords):
			return "gc"
		case containsAny(name, schedWords):
			return "sched"
		}
		return "runtime"
	}
	return "other"
}

// layerShares folds a CPU profile into each layer's share of the samples'
// self time. An empty profile (phase shorter than one 10 ms tick) yields an
// empty map.
func layerShares(gz []byte) (map[string]float64, error) {
	w, err := leafWeights(gz)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for fn, v := range w {
		shares[layerOf(fn)] += v
		total += v
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
