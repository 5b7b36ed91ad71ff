package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it invoked.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id, attaching attrs.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Attrs = attrs
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSummary is the per-name aggregate of a trace: how often a call was
// made, its total duration, and its self time (duration not covered by
// child spans).
type spanSummary struct {
	name        string
	count       int
	total, self time.Duration
}

func (t *tracer) summary() []spanSummary {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*spanSummary{}
	for _, s := range t.spans {
		a := agg[s.Name]
		if a == nil {
			a = &spanSummary{name: s.Name}
			agg[s.Name] = a
		}
		a.count++
		a.total += time.Duration(s.End - s.Start)
		a.self += time.Duration(s.End - s.Start - child[s.ID])
	}
	out := make([]spanSummary, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].total > out[j].total })
	return out
}

// layers are the program's modules the CPU profile is folded into.
var layers = []string{"sim", "netem", "aqm", "tcp", "cca", "topo", "flows", "metrics", "experiment", "svc"}

// layerOf maps a fully qualified function name to the bucket its CPU time
// is charged to: a layer for the program's modules, "runtime" for the Go
// runtime (allocation, GC, scheduling), "bench" for the benchmark's own
// code (the CCA timing decorator) and "other" for the program's remaining
// packages. Standard-library packages map to "": their time belongs to
// the layer that called them (container/heap to sim, encoding/json and
// net/http to svc).
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range layers {
			if name == l {
				return l
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main":
		return "bench"
	}
	return ""
}

// foldProfile reads a gzipped pprof CPU profile and returns each bucket's
// share of the samples. A sample is charged to the innermost frame of its
// stack that layerOf places in a bucket, starting at the leaf (the
// innermost inlined function at the leaf location).
func foldProfile(data []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		counts[p.bucket(s.locs)] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for k, v := range counts {
		shares[k] = float64(v) / float64(total)
	}
	return shares, int(total), nil
}

// bucket walks a sample's stack from the leaf to the first frame layerOf
// places in a bucket.
func (p *profile) bucket(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locLines[loc] {
			name, ok := p.funcName[fn]
			if !ok || name >= uint64(len(p.strs)) {
				continue
			}
			if b := layerOf(p.strs[name]); b != "" {
				return b
			}
		}
	}
	return "other"
}

// The subset of the pprof protobuf schema (profile.proto) folding needs.
type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids, leaf first
	funcName map[uint64]uint64   // function id -> string table index
	strs     []string
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, sb)
				case 2:
					var us []uint64
					if err := appendUints(&us, w, v, sb); err != nil {
						return err
					}
					for _, u := range us {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(sb, func(n, w int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(sub, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	return p, err
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message, handing varints as
// v and length-delimited payloads as sub.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
