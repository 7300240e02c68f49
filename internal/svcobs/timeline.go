package svcobs

import (
	"context"
	"sync"
	"time"
)

// Stage names of a job's wall-clock lifecycle, in their canonical order.
// Not every job passes through every stage: a memory-cache hit goes
// received → cache_probe → respond; a fresh event-tier run adds the
// store probe, queue wait and compute; only telemetry jobs spill.
const (
	StageReceived = "received"    // accepted at the edge, not yet probing
	StageCache    = "cache_probe" // in-memory result-cache lookup
	StageStore    = "store_probe" // durable-store lookup (single flight)
	StageTier     = "tier_decide" // fidelity-tier assessment and routing
	StageQueue    = "queue_wait"  // enqueued, waiting for a worker
	StageCompute  = "compute"     // executing on a worker
	StageRemote   = "remote"      // dispatched to a fleet endpoint
	StageSpill    = "spill"       // telemetry spill / write-behind handoff
	StageRespond  = "respond"     // terminal bookkeeping and response
)

// StageSpan is one closed stage of a timeline.
type StageSpan struct {
	Stage      string
	Start, End time.Time
}

// Timeline measures one job's wall-clock lifecycle as a sequence of
// stage spans. It is created by Observer.StartTimeline, carried through
// the stack via context, marked at each stage boundary by whichever
// component owns that boundary (the pool marks queue/compute, the cache
// marks the probes), and finished exactly once — at which point its
// spans feed the stage histograms, the service tracer, and the
// slowest-jobs ring. All methods are nil-safe no-ops, so instrumented
// code needs no "is observability on" branches.
type Timeline struct {
	obs *Observer

	mu       sync.Mutex
	name     string // job id or sweep-cell name
	reqID    string
	tier     string // serving tier label ("" until known → "event")
	worker   int    // -1 until a pool worker picks the job up
	start    time.Time
	cur      string
	curStart time.Time
	spans    []StageSpan
	done     bool

	// Distributed-plane identity (zero when the job is untraced): the
	// trace the job belongs to, the span ID of the dispatch attempt that
	// caused it, and the timeline's own span ID — the parent every stage
	// span hangs from in a stitched campaign trace.
	traceID      string
	parentSpanID string
	spanID       string
}

// Mark closes the current stage and opens the named one. Marking the
// stage already open is a no-op, so layered callers (server and pool
// both marking queue_wait) cannot double-count.
func (t *Timeline) Mark(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.cur == stage {
		return
	}
	t.spans = append(t.spans, StageSpan{Stage: t.cur, Start: t.curStart, End: now})
	t.cur, t.curStart = stage, now
}

// SetWorker records which pool worker executed the job; its spans land
// on that worker's service-trace track.
func (t *Timeline) SetWorker(w int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.worker = w
	t.mu.Unlock()
}

// SetTier records the serving tier for the stage histogram's tier label.
func (t *Timeline) SetTier(tier string) {
	if t == nil || tier == "" {
		return
	}
	t.mu.Lock()
	t.tier = tier
	t.mu.Unlock()
}

// SetTrace adopts a caller's trace context: the timeline becomes a
// child span of tc.SpanID within tc.TraceID and mints its own span ID.
// An invalid (zero) tc, or a timeline that already adopted one, is a
// no-op, so layered callers cannot re-parent a job mid-flight.
func (t *Timeline) SetTrace(tc TraceContext) {
	if t == nil || !tc.Valid() {
		return
	}
	t.mu.Lock()
	if t.traceID == "" {
		t.traceID = tc.TraceID
		t.parentSpanID = tc.SpanID
		t.spanID = NewSpanID()
	}
	t.mu.Unlock()
}

// SpanID returns the timeline's own span ID ("" when untraced).
func (t *Timeline) SpanID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spanID
}

// RequestID returns the correlation ID the timeline was started with.
func (t *Timeline) RequestID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqID
}

// Finish closes the open stage and publishes the timeline: stage
// durations into the Observer's histograms, spans into the service
// tracer, and the job summary into the recent ring. Safe to call once;
// later Marks are ignored.
func (t *Timeline) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.spans = append(t.spans, StageSpan{Stage: t.cur, Start: t.curStart, End: now})
	if t.tier == "" {
		t.tier = "event"
	}
	tier := t.tier
	summary := JobSummary{
		Name:      t.name,
		RequestID: t.reqID,
		Tier:      tier,
		Worker:    t.worker,
		Start:     t.start,
		End:       now,
		Seconds:   now.Sub(t.start).Seconds(),
		Stages:    make(map[string]float64, len(t.spans)),
	}
	// A finished timeline's spans never change again, so the tracer can
	// read them after the lock is released.
	spans := t.spans
	for _, sp := range spans {
		summary.Stages[sp.Stage] += sp.End.Sub(sp.Start).Seconds()
	}
	obs, worker := t.obs, t.worker
	t.mu.Unlock()

	if obs == nil {
		return
	}
	for stage, secs := range summary.Stages {
		obs.Stage.Observe(secs, stage, tier)
	}
	obs.Tracer.addJob(summary.Name, summary.RequestID, tier, worker, spans)
	obs.finishTimeline(t, summary)
}

// TimelineSummary is a finished timeline's compact wire form: what a
// worker hands back to the fleet dispatcher on the X-Ladm-Timeline
// response header so campaign traces can stitch the worker's stage
// spans under the dispatch attempt that caused them. Times are absolute
// wall-clock microseconds — the stitcher places them on the shared
// timeline directly, accepting ordinary NTP-level clock skew between
// boxes.
type TimelineSummary struct {
	Name         string         `json:"name"`
	RequestID    string         `json:"request_id,omitempty"`
	TraceID      string         `json:"trace_id,omitempty"`
	SpanID       string         `json:"span_id,omitempty"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	Tier         string         `json:"tier,omitempty"`
	Worker       int            `json:"worker"`
	StartUS      int64          `json:"start_us"`
	EndUS        int64          `json:"end_us"`
	Stages       []StageSummary `json:"stages,omitempty"`
}

// StageSummary is one closed stage in a TimelineSummary.
type StageSummary struct {
	Stage   string `json:"stage"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// Summary builds the compact export from a finished traced timeline's
// spans: nil before Finish, for a timeline that never adopted a trace
// (there is no dispatch attempt to stitch it under), or on a nil
// timeline.
func (t *Timeline) Summary() *TimelineSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.done || t.traceID == "" {
		return nil
	}
	ts := &TimelineSummary{
		Name:         t.name,
		RequestID:    t.reqID,
		TraceID:      t.traceID,
		SpanID:       t.spanID,
		ParentSpanID: t.parentSpanID,
		Tier:         t.tier,
		Worker:       t.worker,
		StartUS:      t.start.UnixMicro(),
		EndUS:        t.spans[len(t.spans)-1].End.UnixMicro(), // Finish's close
	}
	for _, sp := range t.spans {
		if d := sp.End.Sub(sp.Start); d > 0 {
			ts.Stages = append(ts.Stages, StageSummary{
				Stage: sp.Stage, StartUS: sp.Start.UnixMicro(), DurUS: d.Microseconds(),
			})
		}
	}
	return ts
}

// TimelineStatus is the /statusz view of one in-flight job.
type TimelineStatus struct {
	Name       string  `json:"name"`
	RequestID  string  `json:"request_id,omitempty"`
	Stage      string  `json:"stage"`
	AgeSeconds float64 `json:"age_seconds"`
	// StageSeconds is how long the job has been in its current stage.
	StageSeconds float64 `json:"stage_seconds"`
	Worker       int     `json:"worker"`
}

// Status snapshots an in-flight timeline.
func (t *Timeline) Status() TimelineStatus {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return TimelineStatus{
		Name:         t.name,
		RequestID:    t.reqID,
		Stage:        t.cur,
		AgeSeconds:   now.Sub(t.start).Seconds(),
		StageSeconds: now.Sub(t.curStart).Seconds(),
		Worker:       t.worker,
	}
}

// currentStage returns the open stage and its start (for queue-age scans).
func (t *Timeline) currentStage() (string, time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.curStart
}

// JobSummary is one finished job in the slowest-recent ring.
type JobSummary struct {
	Name      string             `json:"name"`
	RequestID string             `json:"request_id,omitempty"`
	Tier      string             `json:"tier"`
	Worker    int                `json:"worker"`
	Start     time.Time          `json:"start"`
	End       time.Time          `json:"end"`
	Seconds   float64            `json:"seconds"`
	Stages    map[string]float64 `json:"stages"`
}

// WithTimeline returns ctx carrying the job's timeline.
func WithTimeline(ctx context.Context, t *Timeline) context.Context {
	return context.WithValue(ctx, ctxTimeline, t)
}

// TimelineFrom returns the timeline carried by ctx (nil if none; every
// Timeline method is nil-safe, so callers mark unconditionally).
func TimelineFrom(ctx context.Context) *Timeline {
	t, _ := ctx.Value(ctxTimeline).(*Timeline)
	return t
}
