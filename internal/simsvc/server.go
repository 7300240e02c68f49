package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/core"
	"ladm/internal/kernels"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// Job lifecycle states reported by the service.
const (
	StatusQueued   = "queued"   // accepted, waiting for a worker
	StatusRunning  = "running"  // simulating (or waiting on an identical in-flight job)
	StatusDone     = "done"     // record available
	StatusFailed   = "failed"   // simulation errored or panicked
	StatusCanceled = "canceled" // context expired before completion
)

// JobView is the JSON shape of one tracked job. Run must stay the last
// field: writeView encodes the rest and splices the record's cached
// payload in before the closing brace.
type JobView struct {
	ID      string  `json:"id"`
	Key     string  `json:"key"`
	Status  string  `json:"status"`
	Request Request `json:"request"`
	// Cached reports that the record came from the result cache (or an
	// identical in-flight job) rather than a fresh simulation.
	Cached bool        `json:"cached"`
	Error  string      `json:"error,omitempty"`
	WallMS float64     `json:"wall_ms"`
	Run    *RunPayload `json:"run,omitempty"`
}

type jobRecord struct {
	id     string
	req    Request
	key    JobKey
	status string
	cached bool
	err    error
	// entry is the cache entry holding the job's record and its encoded
	// payload; nil until the job finishes, and for jobs that failed
	// before producing a record.
	entry     *cacheEntry
	submitted time.Time
	finished  time.Time
	// tel holds the run's telemetry collector when this record's
	// execution actually ran the simulator (nil for cache hits, which
	// share only the record). Read exclusively after the job finishes.
	tel *simtel.Collector
	// hub streams the job's lifecycle transitions to SSE subscribers;
	// closed at the terminal status.
	hub *eventHub
	// tl measures the job's wall-clock lifecycle stages (nil-safe).
	tl *svcobs.Timeline
}

// Server exposes the pool, cache and metrics over HTTP:
//
//	POST /run      {workload, policy, machine, scale?, telemetry?, fidelity?, async?}
//	POST /sweep    {workloads, policies?, machines?, scale?, fidelity?, async?}
//	GET  /jobs/{id}
//	GET  /jobs/{id}/telemetry  sampled series / Chrome trace (telemetry jobs)
//	GET  /jobs/{id}/events     live job lifecycle events (SSE)
//	GET  /metrics  Prometheus text format
//
// Every sweep cell is a job of its own: an async sweep's caller follows
// its cells through GET /jobs/{id}.
type Server struct {
	pool  *Pool
	cache *Cache

	// obs is the service-plane observability root: stage histograms,
	// the wall-clock service tracer and the /statusz indexes. Never
	// nil — NewServer installs a logger-less observer, SetObserver
	// swaps in the process-wide one.
	obs *svcobs.Observer

	// store, when non-nil, is the durable second-level result cache; its
	// counters are rendered into /metrics. Telemetry jobs spill their
	// series and trace into its telemetry sibling, so
	// GET /jobs/{key}/telemetry outlives eviction and restarts.
	store *DiskStore

	mu     sync.Mutex
	jobs   map[string]*jobRecord
	nextID int
	// done holds the registry's finished records in completion order:
	// finishJob appends each one under mu as it stamps rec.finished, so
	// the front is always the oldest completion and eviction pops from
	// it without scanning or sorting the registry.
	done []*jobRecord

	// Registry retention: finished records beyond retainMax, or older
	// than retainTTL, are evicted at registration time. Zero values
	// disable the respective limit.
	retainMax int
	retainTTL time.Duration

	// jobTimeout bounds each job's execution (0 = unbounded): the
	// deadline rides the job's context through the pool into the engine,
	// so a pathological request fails with a clear deadline error
	// instead of occupying a worker forever.
	jobTimeout time.Duration

	// maxBody caps request body size on the POST endpoints.
	maxBody int64

	// fleet, when non-nil, serves event-tier non-telemetry jobs through
	// a remote dispatcher before the local pool (internal/fleet,
	// attached via -remote). Its metrics join /metrics and its
	// per-endpoint breaker state joins /statusz.
	fleet Fleet

	// draining flips when shutdown begins: /readyz answers 503 so
	// upstream fleets stop routing here while in-flight work finishes.
	draining atomic.Bool

	// reg exposes the cache-size and registry-size gauges.
	reg svcobs.Registry
}

// Fleet is the remote-dispatch seam the server routes jobs through when
// one is attached (implemented by internal/fleet.Runner; declared here
// so the fleet package can depend on simsvc without a cycle).
type Fleet interface {
	// ExecRequest serves one job remotely, degrading to its local
	// runner on failure.
	ExecRequest(ctx context.Context, req Request, job core.Job) (*stats.Run, error)
	// Endpoints snapshots per-endpoint breaker state for /statusz.
	Endpoints() []FleetEndpoint
	// Cluster scrapes every endpoint's /statusz and merges it with the
	// dispatcher's own view, for GET /fleetz.
	Cluster(ctx context.Context) []FleetWorker
	// Registry holds the fleet_* metric families.
	Registry() *svcobs.Registry
}

// FleetEndpoint is one remote endpoint's state as shown on /statusz.
type FleetEndpoint struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"`
	// BreakerSeconds is how long the breaker has sat in its current
	// state; a large value on an open breaker is the stuck-endpoint tell.
	BreakerSeconds float64 `json:"breaker_seconds"`
	Attempts       int64   `json:"attempts"`
	Failures       int64   `json:"failures"`
	Successes      int64   `json:"successes"`
	InFlight       int64   `json:"in_flight"`
}

// DefaultMaxBody is the request-body cap for POST /run and POST /sweep:
// far beyond any legitimate request (the largest is a full sweep cross
// product of names), small enough that garbage cannot balloon memory.
const DefaultMaxBody = 1 << 20

// DefaultRetainJobs bounds the job registry when no explicit retention
// is configured: enough history for any realistic sweep, finite under
// sustained traffic.
const DefaultRetainJobs = 4096

// NewServer wraps a pool with a result cache and a job registry.
func NewServer(pool *Pool) *Server {
	s := &Server{
		pool:      pool,
		cache:     NewCache(pool.Metrics()),
		obs:       svcobs.NewObserver(nil),
		jobs:      map[string]*jobRecord{},
		retainMax: DefaultRetainJobs,
		maxBody:   DefaultMaxBody,
	}
	s.reg.Int("simsvc_cache_entries", "Cached or in-flight results.", svcobs.Gauge,
		func() int64 { return int64(s.cache.Len()) })
	s.reg.Int("simsvc_tracked_jobs", "Jobs in the registry.", svcobs.Gauge, func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.jobs))
	})
	return s
}

// registries lists every metric source in /metrics order: the pool,
// the server's own gauges, the store, the fleet and the observer.
func (s *Server) registries() []*svcobs.Registry {
	regs := []*svcobs.Registry{s.pool.Metrics().Registry(), &s.reg, s.store.Registry()}
	if s.fleet != nil {
		regs = append(regs, s.fleet.Registry())
	}
	return append(regs, s.obs.Registry())
}

// SetObserver swaps in the process-wide observer (shared with the HTTP
// middleware so edge and job metrics land in one registry). nil resets
// to a logger-less default. Call before serving.
func (s *Server) SetObserver(obs *svcobs.Observer) {
	if obs == nil {
		obs = svcobs.NewObserver(nil)
	}
	s.obs = obs
}

// Observer returns the server's observability root.
func (s *Server) Observer() *svcobs.Observer { return s.obs }

// SetStore attaches the durable result store behind the in-memory
// cache. Call before serving; nil detaches it.
func (s *Server) SetStore(store *DiskStore) {
	s.store = store
	s.cache.SetStore(store)
}

// SetFleet attaches a remote-dispatch fleet in front of the local pool
// for event-tier, non-telemetry jobs. Call before serving; nil detaches.
func (s *Server) SetFleet(f Fleet) { s.fleet = f }

// SetDraining marks the server as shutting down: /readyz answers 503 so
// fleets and load balancers stop routing new jobs here, while requests
// already in flight finish normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// SetJobTimeout bounds every job's execution (0 = unbounded).
func (s *Server) SetJobTimeout(d time.Duration) { s.jobTimeout = d }

// SetMaxBody overrides the POST body cap (0 restores the default).
func (s *Server) SetMaxBody(n int64) {
	if n <= 0 {
		n = DefaultMaxBody
	}
	s.maxBody = n
}

// SetRetention reconfigures job-registry eviction: keep at most maxJobs
// finished records (0 = unlimited) and drop finished records older than
// ttl (0 = no TTL). In-flight jobs are never evicted.
func (s *Server) SetRetention(maxJobs int, ttl time.Duration) {
	s.mu.Lock()
	s.retainMax, s.retainTTL = maxJobs, ttl
	s.mu.Unlock()
}

// Cache returns the server's result cache.
func (s *Server) Cache() *Cache { return s.cache }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/telemetry", s.handleJobTelemetry)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/servicetrace", s.handleServiceTrace)
	mux.HandleFunc("GET /fleetz", s.handleFleetz)
	return mux
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// Orchestrators restart on healthz failure; routing decisions belong to
// /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// Readyz is the GET /readyz document: whether this server should
// receive new jobs, and why not when it shouldn't.
type Readyz struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// Readyz evaluates readiness: not draining, durable store (when
// attached) healthy, and queue not saturated. Orchestrators and load
// balancers route on this — a server that would only 503 or silently
// drop results stops receiving jobs before clients notice.
func (s *Server) Readyz() Readyz {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.store != nil && !s.store.Store.Stats().Healthy {
		reasons = append(reasons, "store degraded")
	}
	if s.pool.queueFull() {
		reasons = append(reasons, "queue full")
	}
	return Readyz{Ready: len(reasons) == 0, Reasons: reasons}
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rz := s.Readyz()
	code := http.StatusOK
	if !rz.Ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, rz)
}

// RouteLabel maps a request onto the bounded route set labeling
// simsvc_http_request_seconds{route}. Anything the service does not
// serve collapses into "other", so scraping garbage paths cannot mint
// metric series.
func RouteLabel(r *http.Request) string {
	path := r.URL.Path
	switch path {
	case "/run", "/sweep", "/metrics", "/statusz", "/healthz", "/readyz",
		"/fleetz", "/debug/servicetrace":
		return path
	}
	if rest, ok := strings.CutPrefix(path, "/jobs/"); ok {
		switch {
		case strings.HasSuffix(rest, "/telemetry"):
			return "/jobs/{id}/telemetry"
		case strings.HasSuffix(rest, "/events"):
			return "/jobs/{id}/events"
		case !strings.Contains(rest, "/"):
			return "/jobs/{id}"
		}
	}
	if strings.HasPrefix(path, "/debug/pprof") {
		return "/debug/pprof"
	}
	return "other"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// viewBuf is a reusable envelope buffer with an indenting encoder bound
// to it, so a single-job response allocates neither.
type viewBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var viewBufs = sync.Pool{New: func() any {
	b := new(viewBuf)
	b.enc = json.NewEncoder(&b.buf)
	b.enc.SetIndent("", "  ")
	return b
}}

// writeSpliced writes exactly what writeJSON(w, code, v) would with
// v.Run set to the record whose indented encoding is payload, without
// encoding the record: it encodes the envelope (v.Run nil) and splices
// payload in before the closing brace.
func writeSpliced(w http.ResponseWriter, code int, v JobView, payload []byte) {
	b := viewBufs.Get().(*viewBuf)
	b.buf.Reset()
	b.enc.Encode(v) // cannot fail: no field of the envelope can hold NaN or Inf
	const tail = "\n}\n"
	b.buf.Truncate(b.buf.Len() - len(tail))
	b.buf.WriteString(",\n  \"run\": ")
	b.buf.Write(payload)
	b.buf.WriteString(tail)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b.buf.Bytes())
	viewBufs.Put(b)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody reads a size-capped JSON request body into v, writing a
// structured 413 or 400 itself (and reporting ok=false) on failure —
// the decoder's opaque messages never reach a client raw.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var maxErr *http.MaxBytesError
	var typeErr *json.UnmarshalTypeError
	var synErr *json.SyntaxError
	switch {
	case errors.As(err, &maxErr):
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", maxErr.Limit))
	case errors.As(err, &typeErr):
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad request body: field %q wants %s, got %s",
				typeErr.Field, typeErr.Type, typeErr.Value))
	case errors.As(err, &synErr):
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("bad request body: invalid JSON at byte %d: %v", synErr.Offset, synErr))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
	}
	return false
}

// register tracks a new job record for the normalized request, evicting
// stale finished records per the retention policy. ctx carries the
// originating request's correlation ID (and logger) into the record's
// timeline and the "job received" log line.
func (s *Server) register(ctx context.Context, req Request) *jobRecord {
	s.mu.Lock()
	s.nextID++
	rec := &jobRecord{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		req:       req,
		key:       req.Key(),
		status:    StatusQueued,
		submitted: time.Now(),
		hub:       newEventHub(s.pool.Metrics()),
	}
	rec.tl = s.obs.StartTimeline(rec.id, svcobs.RequestIDFrom(ctx))
	// Adopt the caller's trace: the job's timeline becomes a child span
	// of the dispatch attempt (or front-end request) that caused it. A
	// trace the middleware minted is not adopted, so the job's timeline
	// stays untraced and its response carries no timeline header.
	if tc := svcobs.TraceContextFrom(ctx); !tc.Minted {
		rec.tl.SetTrace(tc)
	}
	s.jobs[rec.id] = rec
	s.evictLocked(time.Now())
	s.mu.Unlock()
	svcobs.Log(ctx).InfoContext(ctx, "simsvc: job received",
		"job", rec.id, "key", rec.key.String(),
		"workload", req.Workload, "policy", req.Policy, "machine", req.Machine,
		"fidelity", req.Fidelity, "telemetry", req.Telemetry)
	rec.hub.publish(JobEvent{Type: "status", Job: rec.id, Status: StatusQueued})
	return rec
}

func finishedStatus(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// evictLocked applies the retention policy, oldest completion first:
// finished records past the TTL go, then finished records until the
// registry fits retainMax. Both limits pop from the front of the
// completion-ordered s.done — completion times only grow along it — so
// a registration costs O(1) amortized whatever the registry size.
// Records that finish within the same nanosecond leave in the order
// they finished. In-flight records are not in s.done and are never
// evicted. Requires s.mu.
func (s *Server) evictLocked(now time.Time) {
	evicted := 0
	for len(s.done) > 0 {
		rec := s.done[0]
		expired := s.retainTTL > 0 && now.Sub(rec.finished) > s.retainTTL
		if !expired && (s.retainMax <= 0 || len(s.jobs) <= s.retainMax) {
			break
		}
		s.done[0] = nil
		s.done = s.done[1:]
		delete(s.jobs, rec.id)
		evicted++
	}
	if evicted > 0 {
		s.pool.Metrics().evicted.Add(int64(evicted))
	}
}

func (s *Server) view(rec *jobRecord) JobView {
	v, e := s.envelope(rec)
	return withRun(v, e)
}

// withRun completes an envelope with the entry's record, if any.
func withRun(v JobView, e *cacheEntry) JobView {
	if run := e.record(); run != nil {
		p := NewRunPayload(run)
		v.Run = &p
	}
	return v
}

// envelope snapshots rec's view without its run payload, and the cache
// entry that holds the payload.
func (s *Server) envelope(rec *jobRecord) (JobView, *cacheEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:      rec.id,
		Key:     rec.key.String(),
		Status:  rec.status,
		Request: rec.req,
		Cached:  rec.cached,
	}
	if rec.err != nil {
		v.Error = rec.err.Error()
	}
	end := rec.finished
	if end.IsZero() {
		end = time.Now()
	}
	v.WallMS = float64(end.Sub(rec.submitted)) / float64(time.Millisecond)
	return v, rec.entry
}

// writeView answers with rec's view, byte for byte what
// writeJSON(w, code, s.view(rec)) writes. It serves every single-job
// response: the async 202, the finished /run and GET /jobs/{id}. A
// code of 0 answers by the finished job's status: 200 done, 499
// canceled (client closed request), 500 failed.
//
// A record served from the cache has its payload encoded once per
// cache entry and spliced in (writeSpliced). A freshly computed record
// goes through writeJSON and leaves no bytes behind: the response that
// computed it is often its only reader (no fleet-sweep cell repeats),
// and keeping 1.4–1.8 KB for each such record raised that workload's
// peak RSS by a fifth.
func (s *Server) writeView(w http.ResponseWriter, code int, rec *jobRecord) {
	v, e := s.envelope(rec)
	if code == 0 {
		switch v.Status {
		case StatusDone:
			code = http.StatusOK
		case StatusCanceled:
			code = 499
		default:
			code = http.StatusInternalServerError
		}
	}
	var payload []byte
	if v.Cached && e.record() != nil {
		payload = e.payloadJSON() // nil if the record does not encode
	}
	if payload == nil {
		writeJSON(w, code, withRun(v, e))
		return
	}
	writeSpliced(w, code, v, payload)
}

func (s *Server) setStatus(rec *jobRecord, status string) {
	s.mu.Lock()
	rec.status = status
	s.mu.Unlock()
	rec.hub.publish(JobEvent{Type: "status", Job: rec.id, Status: status})
}

// ErrJobTimeout marks a job that failed its per-job deadline. It is
// deliberately not a context error: the job FAILED (a server-imposed
// bound), it was not canceled by its client.
var ErrJobTimeout = errors.New("simsvc: job deadline exceeded")

// execute runs one tracked job to completion through the cache and pool.
// The request was validated at admission; its workload is built only
// inside the cache's compute closure, so memory and store hits never
// construct one.
func (s *Server) execute(ctx context.Context, rec *jobRecord) {
	// The timeline rides the context from here on: the cache marks its
	// probe stages, the pool marks queue wait and compute, all without
	// any of them knowing about job records.
	ctx = svcobs.WithTimeline(ctx, rec.tl)
	parent := ctx
	if s.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.jobTimeout)
		defer cancel()
	}
	var tel *simtel.Collector
	if rec.req.Telemetry {
		tel = simtel.New(simtel.Config{
			SampleEvery: simtel.DefaultSampleEvery,
			Trace:       true,
		})
	}
	s.setStatus(rec, StatusRunning)
	exec := s.pool.Exec
	if s.fleet != nil && rec.req.Fidelity == "" && !rec.req.Telemetry {
		// Front-end mode: event-tier jobs dispatch to the fleet, which
		// degrades to this server's own pool when no remote can serve.
		// Telemetry jobs always run locally — a remote box cannot feed
		// this process's collector — and fidelity jobs keep their local
		// tier-decision path (metrics, escalation logging) intact.
		req := rec.req
		exec = func(ctx context.Context, job core.Job) (*stats.Run, error) {
			if tl := svcobs.TimelineFrom(ctx); tl != nil {
				tl.Mark(svcobs.StageRemote)
			}
			return s.fleet.ExecRequest(ctx, req, job)
		}
	}
	if rec.req.Fidelity != "" {
		// The fidelity tiers route through the two-tier oracle: the
		// closed-form model answers what it can, and under "auto" the
		// rest escalates transparently into the same pool (queueing,
		// timeouts and panic isolation apply unchanged). "analytic" has
		// no fallback — a job outside the model's domain fails rather
		// than silently switching tiers.
		m := s.pool.Metrics()
		tr := &analytic.Runner{
			Scale: rec.req.Scale,
			OnDecision: func(tier string, d analytic.Decision) {
				m.ObserveTierDecision(tier, d)
				if tier != analytic.TierAnalytic {
					svcobs.Log(ctx).InfoContext(ctx, "simsvc: tier escalation",
						"job", rec.id, "class", d.Class, "reason", d.Reason)
				}
			},
		}
		if rec.req.Fidelity == FidelityAuto {
			tr.Fallback = s.pool
		}
		exec = tr.Exec
	}
	tiered := rec.req.Fidelity != ""
	e, cached, err := s.cache.do(ctx, rec.key, func() (*stats.Run, error) {
		if tiered {
			rec.tl.Mark(svcobs.StageTier)
		}
		job, err := rec.req.Resolve()
		if err != nil {
			return nil, err
		}
		job.Tel = tel
		return exec(ctx, job)
	})
	run := e.record()
	if tel != nil {
		if cached {
			// An identical in-flight or cached job produced the record;
			// this collector never saw the engine.
			tel = nil
		} else if err == nil && run != nil && run.Telemetry != nil {
			s.pool.Metrics().observeTelemetry(run.Telemetry.PeakLinkUtil)
		}
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) &&
		s.jobTimeout > 0 && parent.Err() == nil {
		// The server's own deadline fired, not the client's context:
		// report a clear job failure naming the bound.
		err = fmt.Errorf("%w (after -job-timeout %s)", ErrJobTimeout, s.jobTimeout)
	}
	s.mu.Lock()
	rec.tel = tel
	s.mu.Unlock()
	if tel != nil && err == nil && s.store != nil {
		// Spill the full observability output so telemetry survives job
		// eviction and server restarts; write-behind, off the hot path.
		rec.tl.Mark(svcobs.StageSpill)
		if s.store.PutTelemetry(rec.key, newTelemetryRecord(run, tel)) {
			s.pool.Metrics().telemetrySpilled.Add(1)
		}
	}
	s.finishJob(ctx, rec, e, cached, err)
}

func (s *Server) finishJob(ctx context.Context, rec *jobRecord, e *cacheEntry, cached bool, err error) {
	rec.tl.Mark(svcobs.StageRespond)
	if run := e.record(); run != nil {
		rec.tl.SetTier(run.Tier)
	}
	s.mu.Lock()
	rec.finished = time.Now()
	s.done = append(s.done, rec)
	rec.entry, rec.cached, rec.err = e, cached, err
	switch {
	case err == nil:
		rec.status = StatusDone
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		rec.status = StatusCanceled
	default:
		rec.status = StatusFailed
	}
	status := rec.status
	wall := rec.finished.Sub(rec.submitted)
	s.mu.Unlock()
	rec.tl.Finish()
	log := svcobs.Log(ctx)
	if err != nil {
		log.WarnContext(ctx, "simsvc: job finished",
			"job", rec.id, "status", status, "cached", cached,
			"wall", wall.Seconds(), "error", err.Error())
	} else {
		log.InfoContext(ctx, "simsvc: job finished",
			"job", rec.id, "status", status, "cached", cached,
			"wall", wall.Seconds())
	}
	ev := JobEvent{Type: "status", Job: rec.id, Status: status, Cached: cached}
	if err != nil {
		ev.Error = err.Error()
	}
	rec.hub.publish(ev)
	rec.hub.close()
}

type runRequest struct {
	Request
	// Async makes the endpoint return 202 with a job id immediately;
	// poll GET /jobs/{id} for the record.
	Async bool `json:"async,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Workload == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("missing workload (valid: %s)", strings.Join(kernels.Names(), " ")))
		return
	}
	norm := req.Request.Normalize()
	if err := norm.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Async {
		rec := s.register(r.Context(), norm)
		// Check pool capacity up front so a saturated service answers 503
		// instead of hoarding goroutines. The cached/in-flight fast path
		// needs no slot.
		if _, hit := s.cache.Get(rec.key); !hit && s.pool.queueFull() {
			s.finishJob(r.Context(), rec, nil, false, ErrQueueFull)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, ErrQueueFull)
			return
		}
		// WithoutCancel: the job outlives the HTTP request, but keeps
		// its correlation ID and logger for every later log line.
		go s.execute(context.WithoutCancel(r.Context()), rec)
		s.writeView(w, http.StatusAccepted, rec)
		return
	}
	rec := s.register(r.Context(), norm)
	s.execute(r.Context(), rec)
	s.respondFinished(w, rec)
}

func (s *Server) respondFinished(w http.ResponseWriter, rec *jobRecord) {
	// Hand the finished wall-clock timeline back on the response so the
	// fleet dispatcher can stitch this worker's stage spans into its
	// campaign trace without a second round trip. Only a caller that
	// sent its own traceparent has a traced timeline: an untraced caller
	// gets a bare response.
	if ts := rec.tl.Summary(); ts != nil {
		if b, err := json.Marshal(ts); err == nil {
			w.Header().Set(svcobs.TimelineHeader, string(b))
		}
	}
	s.writeView(w, 0, rec)
}

type sweepRequest struct {
	Workloads []string `json:"workloads"`
	Policies  []string `json:"policies"`
	Machines  []string `json:"machines"`
	Scale     int      `json:"scale,omitempty"`
	// Fidelity applies to every cell: "event" (default), "analytic", or
	// "auto" (see Request.Fidelity).
	Fidelity string `json:"fidelity,omitempty"`
	Async    bool   `json:"async,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Workloads) == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("missing workloads (valid: %s)", strings.Join(kernels.Names(), " ")))
		return
	}
	if len(req.Policies) == 0 {
		req.Policies = []string{"ladm"}
	}
	if len(req.Machines) == 0 {
		req.Machines = []string{"hier"}
	}
	// Validate the whole cross product before admitting any cell.
	var cells []Request
	for _, wl := range req.Workloads {
		for _, m := range req.Machines {
			for _, p := range req.Policies {
				cell := Request{Workload: wl, Policy: p, Machine: m, Scale: req.Scale, Fidelity: req.Fidelity}.Normalize()
				if err := cell.Validate(); err != nil {
					writeError(w, http.StatusBadRequest, err)
					return
				}
				cells = append(cells, cell)
			}
		}
	}
	recs := make([]*jobRecord, len(cells))
	for i, cell := range cells {
		recs[i] = s.register(r.Context(), cell)
	}
	ctx := r.Context()
	if req.Async {
		// WithoutCancel: cells outlive the HTTP request but stay
		// correlated with it in the logs.
		ctx = context.WithoutCancel(ctx)
	}
	var wg sync.WaitGroup
	wg.Add(len(recs))
	for _, rec := range recs {
		go func() {
			defer wg.Done()
			s.execute(ctx, rec)
		}()
	}
	if req.Async {
		writeJSON(w, http.StatusAccepted, s.sweepView(recs))
		return
	}
	wg.Wait()
	sv := s.sweepView(recs)
	code := http.StatusOK
	for _, v := range sv.Jobs {
		if v.Status != StatusDone {
			code = http.StatusInternalServerError
			break
		}
	}
	writeJSON(w, code, sv)
}

// SweepView is the JSON shape of a sweep's answer: its cells' job views
// and the completed/cache-hit counts read off them when it is written.
type SweepView struct {
	Total     int       `json:"total"`
	Completed int       `json:"completed"`
	CacheHits int       `json:"cache_hits"`
	Done      bool      `json:"done"`
	Jobs      []JobView `json:"jobs"`
}

func (s *Server) sweepView(recs []*jobRecord) SweepView {
	sv := SweepView{Total: len(recs), Jobs: make([]JobView, len(recs))}
	for i, rec := range recs {
		v := s.view(rec)
		sv.Jobs[i] = v
		if finishedStatus(v.Status) {
			sv.Completed++
			if v.Cached {
				sv.CacheHits++
			}
		}
	}
	sv.Done = sv.Completed == sv.Total
	return sv
}

// lookup returns the job named by the request's {id}, or answers 404
// and returns nil.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobRecord {
	id := r.PathValue("id")
	s.mu.Lock()
	rec := s.jobs[id]
	s.mu.Unlock()
	if rec == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return rec
}

// handleJobEvents streams a job's lifecycle transitions as SSE. Every
// connection replays the job's history first, so subscribing after the
// fact still shows the full queued -> running -> terminal sequence; the
// stream ends at the terminal status.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if rec := s.lookup(w, r); rec != nil {
		streamEvents(w, r, rec.hub)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if rec := s.lookup(w, r); rec != nil {
		s.writeView(w, http.StatusOK, rec)
	}
}

// TelemetryView is the JSON shape of one job's telemetry.
type TelemetryView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cached means the record came from the cache: the summary is
	// shared with the executing job but the series and trace were not
	// retained for this record.
	Cached bool `json:"cached"`
	// Source is "live" when served from the job's in-memory collector,
	// "store" when read back from the durable telemetry spill.
	Source      string           `json:"source"`
	Summary     *stats.Telemetry `json:"summary"`
	Series      *simtel.Series   `json:"series"`
	TraceEvents int              `json:"trace_events"`
}

// handleJobTelemetry serves a finished telemetry job's series and trace:
//
//	GET /jobs/{id}/telemetry            summary + series as JSON
//	GET /jobs/{id}/telemetry?view=csv   series as CSV
//	GET /jobs/{id}/telemetry?view=trace Chrome trace JSON (Perfetto)
//
// {id} is a job id, or a 64-hex JobKey — the latter reads the durable
// telemetry spill directly, so telemetry outlives job eviction and
// server restarts (JobView.Key is the handle to keep). A record that
// existed but just failed validation answers 410 Gone; one that was
// never spilled answers 404.
func (s *Server) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	rec := s.jobs[id]
	s.mu.Unlock()
	if rec == nil {
		// Unknown job id: a content key reads the spill directly.
		if key, isKey := ParseJobKey(id); isKey {
			s.serveStoredTelemetry(w, r, id, "evicted", false, key)
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if !rec.req.Telemetry {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s was not run with telemetry (submit with \"telemetry\": true)", id))
		return
	}
	s.mu.Lock()
	status, run, tel := rec.status, rec.entry.record(), rec.tel
	cached := rec.cached
	s.mu.Unlock()
	if !finishedStatus(status) {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; telemetry is available once it finishes", id, status))
		return
	}
	if tel == nil && s.store != nil {
		// Cache hit or pre-restart job: the collector never existed here,
		// but the executing job may have spilled its telemetry.
		if trec, ok, _ := s.store.GetTelemetry(rec.key); ok {
			s.renderTelemetry(w, r, TelemetryView{ID: id, Status: status, Cached: cached, Source: "store"}, trec)
			return
		}
	}
	// Without a spill the record keeps only the summary it shares with
	// the executing job: no series or trace was retained.
	s.renderTelemetry(w, r, TelemetryView{ID: id, Status: status, Cached: cached, Source: "live"},
		newTelemetryRecord(run, tel))
}

// serveStoredTelemetry answers a telemetry request from the durable
// spill, mapping the store's states onto structured errors: no store or
// never-spilled -> 404, existed-but-rotten -> 410 Gone.
func (s *Server) serveStoredTelemetry(w http.ResponseWriter, r *http.Request,
	id, status string, cached bool, key JobKey) {
	if s.store == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("job %s has no retained telemetry (no durable store attached)", id))
		return
	}
	trec, ok, quarantined := s.store.GetTelemetry(key)
	if !ok {
		if quarantined {
			writeError(w, http.StatusGone,
				fmt.Errorf("telemetry for %s failed validation and was quarantined; re-run the job to regenerate it", id))
			return
		}
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no stored telemetry under %s", id))
		return
	}
	s.renderTelemetry(w, r, TelemetryView{ID: id, Status: status, Cached: cached, Source: "store"}, trec)
}

// renderTelemetry writes one telemetry record in the requested view.
// Every source lands here — the live collector, the durable spill, and a
// cached job's summary alone — so a record read back from disk serves
// byte-identically to the collector that produced it. A record without
// a series (a summary-only cached job) has no csv or trace view.
func (s *Server) renderTelemetry(w http.ResponseWriter, r *http.Request, v TelemetryView, trec *TelemetryRecord) {
	view := r.URL.Query().Get("view")
	switch {
	case view == "" || view == "json":
		v.Summary = trec.Summary
		v.Series = trec.Series
		v.TraceEvents = len(trec.Events)
		writeJSON(w, http.StatusOK, v)
	case view != "csv" && view != "trace":
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown view %q (valid: json, csv, trace)", view))
	case trec.Series == nil:
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s has no retained series (cached result)", v.ID))
	case view == "csv":
		w.Header().Set("Content-Type", "text/csv")
		trec.Series.WriteCSV(w)
	default:
		w.Header().Set("Content-Type", "application/json")
		simtel.WriteTraceEvents(w, trec.Events)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, reg := range s.registries() {
		reg.WriteProm(w)
	}
}
