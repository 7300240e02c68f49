package svcobs

import (
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// recentJobs bounds the finished-jobs ring the slowest-N view draws
// from: enough history that a slow job stays visible for a while under
// traffic, small enough to scan on every /statusz.
const recentJobs = 256

// Observer is the service-plane observability root: one per process,
// shared by the HTTP middleware, the server, the pool and the CLIs. It
// owns the structured logger, the stage and HTTP latency histograms,
// the wall-clock service tracer, and the in-flight/recent job indexes
// behind /statusz.
type Observer struct {
	// Log is the service's structured logger (never nil; defaults to a
	// no-op logger so an Observer without logging still measures).
	Log *slog.Logger
	// Stage is simsvc_job_stage_seconds{stage,tier}.
	Stage *HistogramVec
	// HTTP is simsvc_http_request_seconds{route,code}.
	HTTP *HistogramVec
	// Tracer records finished timelines as a Chrome/Perfetto trace.
	Tracer *Tracer

	// reg exposes Stage and HTTP.
	reg Registry

	start time.Time

	mu       sync.Mutex
	inflight map[*Timeline]struct{}
	recent   []JobSummary // ring, oldest first
}

// NewObserver returns an observer logging through log (nil: no-op
// logger — histograms, traces and statusz still work).
func NewObserver(log *slog.Logger) *Observer {
	if log == nil {
		log = nopLogger
	}
	o := &Observer{
		Log: log,
		Stage: NewHistogramVec("simsvc_job_stage_seconds",
			"Wall-clock seconds jobs spent per lifecycle stage.",
			[]string{"stage", "tier"}, nil),
		HTTP: NewHistogramVec("simsvc_http_request_seconds",
			"Wall-clock HTTP request latency by route and status code.",
			[]string{"route", "code"}, nil),
		Tracer:   newTracer(0),
		start:    time.Now(),
		inflight: map[*Timeline]struct{}{},
	}
	o.reg.HistogramVec(o.Stage)
	o.reg.HistogramVec(o.HTTP)
	return o
}

// StartTimeline opens a job timeline in the received stage and indexes
// it as in-flight. Nil-safe: a nil Observer returns a nil Timeline,
// whose every method is a no-op.
func (o *Observer) StartTimeline(name, requestID string) *Timeline {
	if o == nil {
		return nil
	}
	now := time.Now()
	t := &Timeline{
		obs: o, name: name, reqID: requestID, worker: -1,
		start: now, cur: StageReceived, curStart: now,
	}
	o.mu.Lock()
	o.inflight[t] = struct{}{}
	o.mu.Unlock()
	return t
}

// finishTimeline moves a finished timeline from the in-flight index
// into the recent ring.
func (o *Observer) finishTimeline(t *Timeline, s JobSummary) {
	o.mu.Lock()
	delete(o.inflight, t)
	o.recent = append(o.recent, s)
	if len(o.recent) > recentJobs {
		o.recent = o.recent[len(o.recent)-recentJobs:]
	}
	o.mu.Unlock()
}

// UptimeSeconds returns the observer's age — the process's serving
// uptime when created at startup.
func (o *Observer) UptimeSeconds() float64 {
	if o == nil {
		return 0
	}
	return time.Since(o.start).Seconds()
}

// InFlight snapshots every live timeline, oldest first.
func (o *Observer) InFlight() []TimelineStatus {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	tls := make([]*Timeline, 0, len(o.inflight))
	for t := range o.inflight {
		tls = append(tls, t)
	}
	o.mu.Unlock()
	out := make([]TimelineStatus, len(tls))
	for i, t := range tls {
		out[i] = t.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AgeSeconds > out[j].AgeSeconds })
	return out
}

// OldestQueuedSeconds returns the age of the longest-waiting queued job
// (0 when nothing is queued) — the backpressure headline on /statusz.
func (o *Observer) OldestQueuedSeconds() float64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var oldest float64
	now := time.Now()
	for t := range o.inflight {
		if stage, since := t.currentStage(); stage == StageQueue {
			if age := now.Sub(since).Seconds(); age > oldest {
				oldest = age
			}
		}
	}
	return oldest
}

// Slowest returns the n slowest jobs of the recent ring, slowest first.
func (o *Observer) Slowest(n int) []JobSummary {
	if o == nil || n <= 0 {
		return nil
	}
	o.mu.Lock()
	all := append([]JobSummary(nil), o.recent...)
	o.mu.Unlock()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seconds > all[j].Seconds })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Registry returns the observer's metric families: the stage and HTTP
// histograms (nil for a nil Observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return &o.reg
}

// WriteProm renders the observer's histogram families in Prometheus
// text exposition format.
func (o *Observer) WriteProm(w io.Writer) { o.Registry().WriteProm(w) }
