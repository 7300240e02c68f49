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

// cpuLayers lists the CPU-share buckets in report order. Every sample
// lands in exactly one, so the shares sum to 1.
var cpuLayers = []string{
	"cpu.engine.heap", "cpu.engine.core", "cpu.trace", "cpu.symbolic", "cpu.kir",
	"cpu.cache", "cpu.interconnect", "cpu.dram", "cpu.queueing", "cpu.plan",
	"cpu.analytic", "cpu.service", "cpu.stdlib_net", "cpu.go_runtime", "cpu.other",
}

// pkgLayer maps import paths to layers. Lookups try the full package
// path, then successively shorter prefixes, so "net/http/internal"
// resolves through "net/http".
var pkgLayer = map[string]string{
	"ladm/internal/trace":        "cpu.trace",
	"ladm/internal/symbolic":     "cpu.symbolic",
	"ladm/internal/kir":          "cpu.kir",
	"ladm/internal/mem/cache":    "cpu.cache",
	"ladm/internal/interconnect": "cpu.interconnect",
	"ladm/internal/mem/dram":     "cpu.dram",
	"ladm/internal/queueing":     "cpu.queueing",
	// Planning: what runtime.Prepare runs before the engine starts.
	"ladm/internal/runtime":  "cpu.plan",
	"ladm/internal/compiler": "cpu.plan",
	"ladm/internal/mem/page": "cpu.plan",
	"ladm/internal/sched":    "cpu.plan",
	"ladm/internal/analytic": "cpu.analytic",
	// The service plane.
	"ladm/internal/simsvc":      "cpu.service",
	"ladm/internal/svcobs":      "cpu.service",
	"ladm/internal/simstore":    "cpu.service",
	"ladm/internal/fleet":       "cpu.service",
	"ladm/internal/faultinject": "cpu.service",
	// The standard library's network and encoding stack.
	"net":                            "cpu.stdlib_net",
	"mime":                           "cpu.stdlib_net",
	"encoding/json":                  "cpu.stdlib_net",
	"crypto/sha256":                  "cpu.stdlib_net",
	"crypto/internal/fips140/sha256": "cpu.stdlib_net",
	"internal/poll":                  "cpu.stdlib_net",
	"syscall":                        "cpu.stdlib_net",
	"vendor/golang.org/x/net":        "cpu.stdlib_net",
	// Allocation, garbage collection, scheduling and the map runtime.
	"runtime":          "cpu.go_runtime",
	"internal/runtime": "cpu.go_runtime",
	"runtime/internal": "cpu.go_runtime",
}

// engineHeapTypes are the event-queue types of ladm/internal/engine; the
// rest of the package is the engine core.
var engineHeapTypes = []string{"eventHeap", "scheduler", "funcEvent"}

// funcPackage splits a symbolized Go function name such as
// "ladm/internal/mem/cache.(*Cache).Access" into its import path and the
// remainder ("(*Cache).Access").
func funcPackage(name string) (pkg, rest string) {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name, ""
	}
	cut := slash + 1 + dot
	return name[:cut], name[cut+1:]
}

// layerOf attributes a function, by its package, to one CPU layer.
func layerOf(funcName string) string {
	pkg, rest := funcPackage(funcName)
	if pkg == "ladm/internal/engine" {
		recv := strings.TrimPrefix(strings.TrimPrefix(rest, "(*"), "(")
		for _, t := range engineHeapTypes {
			if strings.HasPrefix(recv, t+")") || strings.HasPrefix(recv, t+".") {
				return "cpu.engine.heap"
			}
		}
		return "cpu.engine.core"
	}
	for p := pkg; p != ""; {
		if l, ok := pkgLayer[p]; ok {
			return l
		}
		i := strings.LastIndex(p, "/")
		if i < 0 {
			break
		}
		p = p[:i]
	}
	return "cpu.other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each
// layer's share of sampled CPU time, attributing every sample to its
// innermost frame (inlined frames included). The shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, float64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		layer := "cpu.other"
		if len(s.locs) > 0 {
			if fn := p.leafFunc(s.locs[0]); fn != "" {
				layer = layerOf(fn)
			}
		}
		byLayer[layer] += v
		total += v
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, total / 1e9, nil
}

// profileData is the subset of profile.proto the shares need.
type profileData struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profileData) leafFunc(loc uint64) string {
	fns := p.locations[loc]
	if len(fns) == 0 {
		return ""
	}
	idx := p.functions[fns[0]]
	if idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes. It is
// a minimal reader for the fields above (profile.proto numbering).
func parseProfile(data []byte) (*profileData, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profileData{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = walkFields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			if err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// walkFields calls fn for each field of a protobuf message: v carries
// varint and fixed values, b the payload of length-delimited ones.
func walkFields(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints collects a repeated varint field in either encoding:
// one unpacked value, or a packed run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
