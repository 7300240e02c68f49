package svcobs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ladm/internal/simtel"
)

// DefaultTraceEvents bounds the service tracer's span ring: 3 spans per
// memory hit, up to 8 per computed job, so thousands of recent jobs —
// far more than a screenful of Perfetto. A full ring of memory-hit
// spans holds about 8 MB of live heap, job and request IDs included
// (measured on go1.24 amd64; ~35 MB when every span carried its own
// name string and args map).
const DefaultTraceEvents = 65536

// Tracer records finished job timelines as wall-clock Chrome trace
// events: one process ("service"), one thread track per pool worker
// plus an "edge" track for jobs that never reached a worker (cache
// hits, analytic-tier answers), one "X" span per job stage. It reuses
// simtel's trace-event writer, so the service's schedule loads in
// Perfetto exactly like a kernel's — with wall microseconds where the
// simulator trace has simulated cycles.
//
// The ring is bounded: beyond max events the oldest quarter is dropped,
// so a long-lived server always serves its recent history.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	max    int
	events []traceSlot
	tracks map[int]bool // thread-name metadata already emitted, by tid
	drops  int64        // events trimmed from the ring

	// Named tracks (fleet endpoints, the campaign "client" track) live
	// in a tid range far above any plausible worker count. The name→tid
	// assignment survives ring trims — only the metadata emission state
	// (tracks) resets — so a track keeps its lane for the tracer's life.
	named   map[string]int
	names   map[int]string // tid → display name for metadata re-emission
	nextTID int
}

// namedTrackBase is the first tid handed to named tracks, leaving the
// lower range to per-worker tracks.
const namedTrackBase = 1 << 16

// traceSlot is one ring entry. Job-stage spans, nearly the whole ring
// under load, are kept as their raw fields and only become events —
// name string, args map — when the trace is read, so a full ring holds
// no per-span heap objects. Everything else (track metadata, fleet
// spans and instants) arrives as a ready-made event in ev.
type traceSlot struct {
	ev *simtel.Event // ready-made event; nil for a job-stage span

	job, stage, tier, reqID string
	ts, dur                 int64 // microseconds since the tracer's start
	tid                     int
}

// meta reports whether the slot is track or process metadata, which
// sorts ahead of every span.
func (s *traceSlot) meta() bool { return s.ev != nil && s.ev.Ph == "M" }

// at is the slot's start time in trace microseconds.
func (s *traceSlot) at() float64 {
	if s.ev != nil {
		return s.ev.TS
	}
	return float64(s.ts)
}

// event renders the slot as a Chrome trace event.
func (s *traceSlot) event() simtel.Event {
	if s.ev != nil {
		return *s.ev
	}
	args := map[string]any{"stage": s.stage, "tier": s.tier}
	if s.reqID != "" {
		args["request_id"] = s.reqID
	}
	return simtel.Event{
		Name: s.job + "/" + s.stage, Cat: "job", Ph: "X",
		TS: float64(s.ts), Dur: float64(s.dur),
		PID: 0, TID: s.tid, Args: args,
	}
}

// newTracer returns a tracer whose timestamps count from now.
func newTracer(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultTraceEvents
	}
	return &Tracer{
		start: time.Now(), max: maxEvents, tracks: map[int]bool{},
		named: map[string]int{}, names: map[int]string{}, nextTID: namedTrackBase,
	}
}

// tid maps a timeline's worker to its trace track: tid 0 is the edge
// track, workers count from 1.
func workerTID(worker int) int {
	if worker < 0 {
		return 0
	}
	return worker + 1
}

// ensureTrackLocked emits the thread-name metadata for a tid once.
func (t *Tracer) ensureTrackLocked(tid int) {
	if t.tracks[tid] {
		return
	}
	t.tracks[tid] = true
	name := "edge"
	if n, ok := t.names[tid]; ok {
		name = n
	} else if tid > 0 {
		name = fmt.Sprintf("worker %d", tid-1)
	}
	t.events = append(t.events, traceSlot{ev: &simtel.Event{
		Name: "thread_name", Ph: "M", PID: 0, TID: tid,
		Args: map[string]any{"name": name},
	}})
}

// namedTIDLocked returns (assigning on first use) the tid of a named
// track.
func (t *Tracer) namedTIDLocked(track string) int {
	if tid, ok := t.named[track]; ok {
		return tid
	}
	tid := t.nextTID
	t.nextTID++
	t.named[track] = tid
	t.names[tid] = track
	return tid
}

// trimLocked drops the oldest quarter of the ring once it overflows;
// metadata re-emits lazily because the tracks set resets.
func (t *Tracer) trimLocked() {
	if len(t.events) <= t.max {
		return
	}
	cut := t.max / 4
	t.drops += int64(cut)
	t.events = append(t.events[:0], t.events[cut:]...)
	t.tracks = map[int]bool{}
}

// AddSpan records one complete wall-clock span on a named track — the
// fleet dispatcher's attempt spans on per-endpoint tracks, cell
// spans on the campaign's client track, and stitched worker stages all
// land here. Zero or negative durations are dropped, matching the
// timeline path. Nil-safe: an unobserved component records nothing.
func (t *Tracer) AddSpan(track, name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil || dur <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tid := t.namedTIDLocked(track)
	t.ensureTrackLocked(tid)
	t.events = append(t.events, traceSlot{ev: &simtel.Event{
		Name: name, Cat: cat, Ph: "X",
		TS:  float64(start.Sub(t.start).Microseconds()),
		Dur: float64(dur.Microseconds()),
		PID: 0, TID: tid, Args: args,
	}})
	t.trimLocked()
}

// AddInstant records one instant event on a named track (breaker
// rejections). Nil-safe.
func (t *Tracer) AddInstant(track, name, cat string, ts time.Time, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tid := t.namedTIDLocked(track)
	t.ensureTrackLocked(tid)
	t.events = append(t.events, traceSlot{ev: &simtel.Event{
		Name: name, Cat: cat, Ph: "i",
		TS:  float64(ts.Sub(t.start).Microseconds()),
		PID: 0, TID: tid, Args: args,
	}})
	t.trimLocked()
}

// AddTimeline stitches a worker-returned timeline summary onto a named
// track: one span for the remote job itself (carrying the summary's
// span identity, so it reads as the child of the dispatch attempt that
// caused it) plus one child span per stage. The summary's times are
// absolute wall-clock microseconds from the worker's clock, placed on
// this tracer's timeline directly — ordinary NTP-level skew between
// boxes is accepted. Nil-safe on both receiver and summary.
func (t *Tracer) AddTimeline(track string, ts *TimelineSummary) {
	if t == nil || ts == nil || ts.EndUS <= ts.StartUS {
		return
	}
	args := map[string]any{"tier": ts.Tier, "worker": ts.Worker}
	if ts.RequestID != "" {
		args["request_id"] = ts.RequestID
	}
	if ts.TraceID != "" {
		args["trace_id"] = ts.TraceID
		args["span_id"] = ts.SpanID
		args["parent_span_id"] = ts.ParentSpanID
	}
	start := time.UnixMicro(ts.StartUS)
	t.AddSpan(track, ts.Name, "worker", start,
		time.Duration(ts.EndUS-ts.StartUS)*time.Microsecond, args)
	for _, sp := range ts.Stages {
		sargs := map[string]any{"stage": sp.Stage}
		if ts.TraceID != "" {
			sargs["trace_id"] = ts.TraceID
			sargs["parent_span_id"] = ts.SpanID
		}
		t.AddSpan(track, ts.Name+"/"+sp.Stage, "job", time.UnixMicro(sp.StartUS),
			time.Duration(sp.DurUS)*time.Microsecond, sargs)
	}
}

// addJob appends one finished job's stage spans to the ring as compact
// slots: no allocation beyond amortized ring growth.
func (t *Tracer) addJob(name, reqID, tier string, worker int, spans []StageSpan) {
	if t == nil {
		return
	}
	tid := workerTID(worker)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTrackLocked(tid)
	for _, sp := range spans {
		dur := sp.End.Sub(sp.Start)
		if dur <= 0 {
			continue
		}
		t.events = append(t.events, traceSlot{
			job: name, stage: sp.Stage, tier: tier, reqID: reqID,
			ts:  sp.Start.Sub(t.start).Microseconds(),
			dur: dur.Microseconds(),
			tid: tid,
		})
	}
	t.trimLocked()
}

// Events returns a sorted copy of the ring: metadata first, then spans
// by start time (trimming can leave them out of order).
func (t *Tracer) Events() []simtel.Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	slots := append([]traceSlot(nil), t.events...)
	start := t.start
	t.mu.Unlock()
	sort.SliceStable(slots, func(i, j int) bool {
		mi, mj := slots[i].meta(), slots[j].meta()
		if mi != mj {
			return mi
		}
		return slots[i].at() < slots[j].at()
	})
	// Re-name the process once per write; cheap and keeps addJob lean.
	evs := make([]simtel.Event, 1, len(slots)+1)
	evs[0] = simtel.Event{
		Name: "process_name", Ph: "M", PID: 0,
		Args: map[string]any{"name": fmt.Sprintf("ladm service (t0=%s)", start.Format(time.RFC3339))},
	}
	for i := range slots {
		evs = append(evs, slots[i].event())
	}
	return evs
}

// WriteTrace writes the service trace as Chrome trace JSON, loadable in
// chrome://tracing and Perfetto.
func (t *Tracer) WriteTrace(w io.Writer) error {
	return simtel.WriteTraceEvents(w, t.Events())
}

// Len returns the number of buffered events (tests and /statusz).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}
