package svcobs

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Metric types a family can declare.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Value is one sample's value. Integers render as integers at any size,
// floats with %g.
type Value struct {
	i     int64
	f     float64
	float bool
	h     *Histogram // set for histogram samples
}

// Int is an integer-valued sample.
func Int(v int64) Value { return Value{i: v} }

// Float is a float-valued sample.
func Float(v float64) Value { return Value{f: v, float: true} }

// Emit reports one sample of a family. With no label values the sample
// is unlabeled; otherwise the values pair, in order, with the family's
// label names.
type Emit func(v Value, labelValues ...string)

type family struct {
	name, help, typ string
	labels          []string
	collect         func(Emit)
}

// Registry is the one Prometheus text exposition writer: an ordered list
// of families whose collect functions read values their owners keep
// (plain atomics, mostly) at scrape time, so recording a sample costs
// nothing extra. Register every family at construction, before the
// registry is read. A nil Registry exposes nothing.
type Registry struct {
	fams []family
}

// Family registers a family whose collect function emits any number of
// samples; a family that emits none is left out of the exposition.
// collect runs on every read, so it must be safe for concurrent use.
func (r *Registry) Family(name, help, typ string, labels []string, collect func(Emit)) {
	r.fams = append(r.fams, family{name: name, help: help, typ: typ, labels: labels, collect: collect})
}

// Int registers an unlabeled integer counter or gauge read by get.
func (r *Registry) Int(name, help, typ string, get func() int64) {
	r.Family(name, help, typ, nil, func(emit Emit) { emit(Int(get())) })
}

// Float registers an unlabeled float counter or gauge read by get.
func (r *Registry) Float(name, help, typ string, get func() float64) {
	r.Family(name, help, typ, nil, func(emit Emit) { emit(Float(get())) })
}

// Histogram registers one unlabeled histogram.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.Family(name, help, "histogram", nil, func(emit Emit) { emit(Value{h: h}) })
}

// HistogramVec registers a labeled histogram family, children in sorted
// label order. A vec with no children yet is left out.
func (r *Registry) HistogramVec(v *HistogramVec) {
	r.Family(v.name, v.help, "histogram", v.labels, func(emit Emit) {
		v.mu.Lock()
		children := slices.Clone(v.sorted)
		v.mu.Unlock()
		for _, c := range children {
			emit(Value{h: c.h}, c.values...)
		}
	})
}

// WriteProm renders every family in Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	for _, f := range r.fams {
		header := true
		f.collect(func(v Value, values ...string) {
			if header {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
				header = false
			}
			labels := ""
			if len(values) > 0 {
				labels = labelPairs(f.labels, values)
			}
			if v.h != nil {
				v.h.writeSamples(w, f.name, labels)
			} else {
				fmt.Fprintf(w, "%s %s\n", series(f.name, labels), v)
			}
		})
	}
}

// Scalars adds every unlabeled sample to dst, keyed by series name; an
// unlabeled histogram contributes its _sum and _count series. These are
// exactly the exposition lines without braces.
func (r *Registry) Scalars(dst map[string]float64) {
	if r == nil {
		return
	}
	for _, f := range r.fams {
		f.collect(func(v Value, values ...string) {
			switch {
			case len(values) > 0:
			case v.h != nil:
				dst[f.name+"_sum"] = v.h.Sum()
				dst[f.name+"_count"] = float64(v.h.Count())
			case v.float:
				dst[f.name] = v.f
			default:
				dst[f.name] = float64(v.i)
			}
		})
	}
}

// String renders the value as an exposition sample value.
func (v Value) String() string {
	if v.float {
		return fmt.Sprintf("%g", v.f)
	}
	return fmt.Sprintf("%d", v.i)
}

// series renders a sample's series name: name{labels}, or the bare name
// when there are no labels.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// labelPairs renders `k1="v1",k2="v2"`; missing values render empty.
func labelPairs(names, values []string) string {
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		val := ""
		if i < len(values) {
			val = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", name, val)
	}
	return b.String()
}
