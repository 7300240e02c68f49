package svcobs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultBuckets are the fixed histogram bounds (seconds) shared by the
// job-stage and HTTP-request histograms: sub-millisecond cache probes up
// through multi-minute paper-scale simulations, log-ish spaced so both
// a 2 ms store read and a 40 s pagerank land in an interior bucket.
var DefaultBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Histogram is one fixed-bucket Prometheus histogram. Observations are
// lock-free atomic adds; a zero value is not usable — use NewHistogram.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given upper bounds (sorted
// ascending; nil means DefaultBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// writeSamples renders the histogram's _bucket/_sum/_count samples.
// labels is the pre-rendered label list without braces ("" for none);
// the le label is appended to it per bucket.
func (h *Histogram) writeSamples(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s %g\n", series(name+"_sum", labels), h.Sum())
	fmt.Fprintf(w, "%s %d\n", series(name+"_count", labels), h.Count())
}

// WriteProm renders the histogram as a full exposition family.
func (h *Histogram) WriteProm(w io.Writer, name, help string) {
	var r Registry
	r.Histogram(name, help, h)
	r.WriteProm(w)
}

// HistogramVec is a family of histograms sharing bucket bounds, keyed by
// a fixed label set — the shape behind simsvc_job_stage_seconds{stage,
// tier} and simsvc_http_request_seconds{route,code}. Children are
// created on first observation and never removed; label values must be
// bounded (stage names, route patterns, status codes), never raw paths
// or IDs.
type HistogramVec struct {
	name   string
	help   string
	labels []string
	bounds []float64

	mu       sync.Mutex
	children map[string]*vecChild // by label values joined with labelSep
	sorted   []*vecChild          // by exposition labels, for deterministic output
}

// labelSep joins label values into a child's map key. It is not valid
// UTF-8, so it cannot appear inside a well-formed label value.
const labelSep = 0xff

// vecChild is one labeled histogram, the label values it was created
// with, and their rendered exposition pairs (its sort key).
type vecChild struct {
	h      *Histogram
	values []string
	pairs  string
}

// NewHistogramVec returns an empty labeled histogram family.
func NewHistogramVec(name, help string, labels []string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = DefaultBuckets
	}
	return &HistogramVec{
		name: name, help: help, labels: labels, bounds: bounds,
		children: map[string]*vecChild{},
	}
}

// With returns the child histogram for the given label values (in label
// order), creating it on first use. Finding an existing child allocates
// nothing: the lookup key is built in a stack buffer, and the exposition
// labels are rendered only when a child is created.
func (v *HistogramVec) With(values ...string) *Histogram {
	var buf [128]byte
	key := buf[:0]
	for i := range v.labels {
		if i > 0 {
			key = append(key, labelSep)
		}
		if i < len(values) {
			key = append(key, values[i]...)
		}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.children[string(key)]; c != nil {
		return c.h
	}
	c := &vecChild{h: NewHistogram(v.bounds), values: make([]string, len(v.labels))}
	copy(c.values, values)
	c.pairs = labelPairs(v.labels, c.values)
	v.children[string(key)] = c
	i := sort.Search(len(v.sorted), func(i int) bool { return v.sorted[i].pairs >= c.pairs })
	v.sorted = slices.Insert(v.sorted, i, c)
	return c.h
}

// Observe records one value under the given label values.
func (v *HistogramVec) Observe(value float64, labels ...string) {
	v.With(labels...).Observe(value)
}

// HistogramChild is one labeled histogram's (count, sum) snapshot,
// used by aggregated views (/fleetz) that want means without parsing
// exposition text.
type HistogramChild struct {
	// Labels holds the child's label values in the vec's label order.
	Labels []string
	Count  int64
	Sum    float64
}

// Children snapshots every child's count and sum, in sorted label
// order, with the label values With was called with.
func (v *HistogramVec) Children() []HistogramChild {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]HistogramChild, 0, len(v.sorted))
	for _, c := range v.sorted {
		out = append(out, HistogramChild{Labels: slices.Clone(c.values), Count: c.h.Count(), Sum: c.h.Sum()})
	}
	return out
}

// WriteProm renders every child under one HELP/TYPE header, children in
// sorted label order. A family with no children is omitted entirely
// (Prometheus treats absent and empty identically).
func (v *HistogramVec) WriteProm(w io.Writer) {
	var r Registry
	r.HistogramVec(v)
	r.WriteProm(w)
}
