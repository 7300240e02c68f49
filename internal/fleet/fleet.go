// Package fleet dispatches simulation jobs to remote ladmserve
// instances over the existing POST /run surface, with the resilience
// stack a multi-box campaign needs: per-attempt timeouts, capped
// jittered exponential backoff retries, a per-endpoint circuit breaker,
// and graceful degradation — when no remote can serve a job, it runs
// on the local inner Runner instead, so a campaign never fails
// outright, it just slows down.
//
// Every retry and failover is idempotent by construction: simsvc jobs
// are pure content-hashed values, so executing one twice (or on two
// boxes) produces byte-identical records. That purity is what lets this
// layer be aggressive — the worst a duplicated attempt can cost is
// wasted work, never a wrong answer.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"ladm/internal/core"
	"ladm/internal/simstore"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// limits are the dispatcher's resilience constants. New applies
// defaultLimits; in-package tests pass faster ones to newRunner.
type limits struct {
	// attemptTimeout bounds each individual remote call.
	attemptTimeout time.Duration
	// maxAttempts is the total number of tries per job (first + retries).
	maxAttempts int
	// retryBase/retryMax shape the capped jittered exponential backoff
	// between attempts.
	retryBase, retryMax time.Duration
	// breakerThreshold is the consecutive-failure count that opens an
	// endpoint's circuit; breakerCooldown how long it stays open before
	// a half-open probe.
	breakerThreshold int
	breakerCooldown  time.Duration
	// perEndpoint bounds the remote jobs in flight through one Runner's
	// Exec, per configured endpoint.
	perEndpoint int
}

var defaultLimits = limits{
	attemptTimeout:   2 * time.Minute,
	maxAttempts:      3,
	retryBase:        50 * time.Millisecond,
	retryMax:         2 * time.Second,
	breakerThreshold: 3,
	breakerCooldown:  5 * time.Second,
	perEndpoint:      4,
}

// maxResponseBytes caps how much of a remote response is read; run
// records are a few KB, so this is sabotage protection, not a limit.
const maxResponseBytes = 32 << 20

// Config assembles a fleet Runner.
type Config struct {
	// Endpoints are the remote ladmserve base addresses ("host:port" or
	// full URLs). Required.
	Endpoints []string
	// Local is the degrade target: jobs that cannot be served remotely
	// (unnameable jobs, every breaker open, exhausted retries) run
	// here. Required — degradation is the design, not an option.
	Local core.Runner
	// Scale is the input-scale divisor the sweep's jobs were built at
	// (0 = simsvc.DefaultScale); it is part of every remote request.
	Scale int
	// Fidelity is the serving tier stamped on remote requests
	// ("" = event).
	Fidelity string
	// Client performs the HTTP calls (nil = a default client). Tests
	// and chaos runs wrap its transport with faultinject.Transport.
	Client *http.Client
	// Log receives breaker and degrade events (nil = discard).
	// Request-scoped lines carry the svcobs correlation ID.
	Log *slog.Logger

	// Observer, when set, turns on the distributed observability plane:
	// every attempt, retry and breaker rejection becomes a span
	// (or instant) on a per-endpoint track of the observer's service
	// tracer, and worker-returned timeline summaries are stitched in as
	// child stage spans — the merged campaign trace. Nil keeps dispatch
	// completely unobserved (and unconditionally skips the stitching
	// work), the same zero-cost-when-off contract as the other planes.
	Observer *svcobs.Observer
	// Trace is the campaign's root trace context, minted by the caller
	// (ladmbench -campaign-trace). Jobs whose context does not already
	// carry a trace (the front-end path injects one per request) become
	// children of this root. Zero means: mint per-job roots when an
	// Observer is set, propagate nothing otherwise.
	Trace svcobs.TraceContext
}

// endpoint is one remote ladmserve plus its resilience state.
type endpoint struct {
	url string
	br  *breaker

	attempts  atomic.Int64
	failures  atomic.Int64
	successes atomic.Int64
	inflight  atomic.Int64

	// breaker transition counters, by destination state.
	toClosed   atomic.Int64
	toOpen     atomic.Int64
	toHalfOpen atomic.Int64
}

// Runner is the fleet dispatcher. It implements core.Runner (Exec) for
// campaign use and simsvc.Fleet (ExecRequest) for the server's per-job
// path.
type Runner struct {
	cfg    Config
	lim    limits
	client *http.Client
	log    *slog.Logger
	obs    *svcobs.Observer
	eps    []*endpoint
	m      *Metrics
	sem    chan struct{}

	rr atomic.Uint64 // round-robin cursor
}

// New validates the config and returns the runner.
func New(cfg Config) (*Runner, error) { return newRunner(cfg, defaultLimits) }

func newRunner(cfg Config, lim limits) (*Runner, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("fleet: no endpoints configured")
	}
	if cfg.Local == nil {
		return nil, errors.New("fleet: Config.Local (the degrade target) is required")
	}
	r := &Runner{cfg: cfg, lim: lim, obs: cfg.Observer,
		sem: make(chan struct{}, lim.perEndpoint*len(cfg.Endpoints))}
	r.client = cfg.Client
	if r.client == nil {
		r.client = &http.Client{}
	}
	r.log = cfg.Log
	if r.log == nil {
		r.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	for _, raw := range cfg.Endpoints {
		u, err := normalizeEndpoint(raw)
		if err != nil {
			return nil, err
		}
		ep := &endpoint{url: u}
		ep.br = newBreaker(lim.breakerThreshold, lim.breakerCooldown, func(from, to breakerState) {
			switch to {
			case breakerClosed:
				ep.toClosed.Add(1)
			case breakerOpen:
				ep.toOpen.Add(1)
			case breakerHalfOpen:
				ep.toHalfOpen.Add(1)
			}
			r.log.Warn("fleet: breaker transition",
				"endpoint", ep.url, "from", from.String(), "to", to.String())
		})
		r.eps = append(r.eps, ep)
	}
	r.m = newMetrics(r.eps)
	return r, nil
}

// normalizeEndpoint turns "host:port" into a scheme-qualified base URL.
func normalizeEndpoint(raw string) (string, error) {
	s := strings.TrimSpace(raw)
	if s == "" {
		return "", errors.New("fleet: empty endpoint")
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	u, err := url.Parse(s)
	if err != nil || u.Host == "" {
		return "", fmt.Errorf("fleet: bad endpoint %q", raw)
	}
	return strings.TrimSuffix(s, "/"), nil
}

// Close is a no-op kept for existing callers: a Runner owns no
// goroutines or connections.
func (r *Runner) Close() {}

func (r *Runner) scale() int {
	if r.cfg.Scale > 0 {
		return r.cfg.Scale
	}
	return simsvc.DefaultScale
}

// requestFor maps a sweep job onto the registry Request a remote can
// serve. ok=false (custom workloads, mutated machines, telemetry
// collectors) keeps the job local — a remote box cannot hold this
// process's collector, and unnameable jobs have no stable content key.
func (r *Runner) requestFor(job core.Job) (simsvc.Request, bool) {
	req, ok := simsvc.RequestForJob(job, r.scale())
	if !ok {
		return simsvc.Request{}, false
	}
	req.Fidelity = r.cfg.Fidelity
	return req.Normalize(), true
}

// Exec implements core.Runner: a registry-named job is dispatched to the
// fleet (degrading to Local on failure) and anything else runs on Local.
// Records are byte-identical to a pure local run — that equivalence is
// pinned by tests.
func (r *Runner) Exec(ctx context.Context, job core.Job) (*stats.Run, error) {
	req, ok := r.requestFor(job)
	if !ok {
		r.m.localJobs.Add(1)
		return r.cfg.Local.Exec(ctx, job)
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-r.sem }()
	return r.ExecRequest(ctx, req, job)
}

// dispatch carries one job's distributed-trace identity through the
// retry plumbing: tc is the dispatch span's own context — every
// remote attempt mints a Child() of it — and parent is the span the
// dispatch hangs from (the front-end request span or the campaign
// root). A nil *dispatch means the job is untraced: no spans, no
// headers, no allocations.
type dispatch struct {
	tc     svcobs.TraceContext
	parent string
	reqID  string
}

// newDispatch resolves a job's trace parentage: a context-carried trace
// (the front-end request path) wins, then the configured campaign root
// (ladmbench -campaign-trace), then — only when an Observer makes spans
// worth recording — a fresh per-job root.
func (r *Runner) newDispatch(ctx context.Context) *dispatch {
	parent := svcobs.TraceContextFrom(ctx)
	if !parent.Valid() {
		parent = r.cfg.Trace
	}
	if !parent.Valid() {
		if r.obs == nil {
			return nil
		}
		parent = svcobs.NewTraceContext()
	}
	return &dispatch{tc: parent.Child(), parent: parent.SpanID,
		reqID: svcobs.RequestIDFrom(ctx)}
}

// dispatchSpan records the whole job's dispatch span on the campaign's
// client track: one span per fleet-served job, parenting every attempt.
func (r *Runner) dispatchSpan(d *dispatch, req simsvc.Request, start time.Time, outcome string) {
	if d == nil || r.obs == nil {
		return
	}
	args := map[string]any{
		"trace_id": d.tc.TraceID, "span_id": d.tc.SpanID,
		"parent_span_id": d.parent, "outcome": outcome,
		"workload": req.Workload, "policy": req.Policy,
	}
	if d.reqID != "" {
		args["request_id"] = d.reqID
	}
	r.obs.Tracer.AddSpan("client", req.Workload+"/"+req.Policy, "dispatch",
		start, time.Since(start), args)
}

// ExecRequest serves one job through the fleet: remote with retries,
// falling back to the Local runner on any remote failure. The
// degrade decision is universal — whatever went wrong remotely
// (endpoints down, breakers open, retries exhausted, or the job itself
// failing), the local runner produces the authoritative outcome, so a
// fleet campaign's results and errors match a pure local run exactly.
func (r *Runner) ExecRequest(ctx context.Context, req simsvc.Request, job core.Job) (*stats.Run, error) {
	d := r.newDispatch(ctx)
	start := time.Now()
	run, err := r.runRemote(ctx, req, d)
	if err == nil {
		r.m.remoteJobs.Add(1)
		r.dispatchSpan(d, req, start, "remote")
		return run, nil
	}
	if ctx.Err() != nil {
		// The caller is gone; running locally would just burn a core.
		r.dispatchSpan(d, req, start, "canceled")
		return nil, err
	}
	r.m.degraded.Add(1)
	r.log.Warn("fleet: degrading job to local",
		"workload", req.Workload, "policy", req.Policy, "machine", req.Machine,
		"error", err.Error(), "request_id", svcobs.RequestIDFrom(ctx))
	run, err = r.cfg.Local.Exec(ctx, job)
	if err != nil {
		r.dispatchSpan(d, req, start, "failed")
		return nil, err
	}
	r.dispatchSpan(d, req, start, "degraded")
	return run, nil
}

// errNoEndpoints marks a fleet-wide outage: every breaker is open.
var errNoEndpoints = errors.New("no endpoint available (all breakers open)")

// runRemote executes one request against the fleet with retries.
func (r *Runner) runRemote(ctx context.Context, req simsvc.Request, d *dispatch) (*stats.Run, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < r.lim.maxAttempts; attempt++ {
		if attempt > 0 {
			r.m.retries.Add(1)
			if !sleepCtx(ctx, simstore.Backoff(r.lim.retryBase, r.lim.retryMax, attempt-1)) {
				return nil, fmt.Errorf("fleet: remote run %s/%s: %w", req.Workload, req.Policy, ctx.Err())
			}
		}
		ep := r.pick()
		if ep == nil {
			if lastErr == nil {
				lastErr = errNoEndpoints
			}
			break
		}
		run, ce := r.call(ctx, body, ep, d, attempt)
		if ce == nil {
			return run, nil
		}
		lastErr = ce
		if !ce.retryable() || ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("fleet: remote run %s/%s failed: %w", req.Workload, req.Policy, lastErr)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// pick returns the next breaker-admitted endpoint round-robin from a
// shared cursor, or nil when every breaker refuses (the degrade
// signal).
func (r *Runner) pick() *endpoint {
	n := len(r.eps)
	start := int(r.rr.Add(1))
	now := time.Now()
	for i := 0; i < n; i++ {
		ep := r.eps[(start+i)%n]
		if !ep.br.Allow(now) {
			if r.obs != nil {
				r.obs.Tracer.AddInstant(ep.url, "breaker-rejected", "fleet", now,
					map[string]any{"state": ep.br.State().String()})
			}
			continue
		}
		return ep
	}
	return nil
}

// errKind classifies a failed call for the retry loop.
type errKind int

const (
	// kindRetryable: transport/5xx/decode failures — another attempt
	// (or endpoint) may succeed.
	kindRetryable errKind = iota
	// kindPermanent: the endpoint deterministically rejected the
	// request (4xx); retrying cannot help.
	kindPermanent
	// kindJobFailed: the remote server worked but the job itself
	// failed; the local degrade run will reproduce the authoritative
	// error.
	kindJobFailed
)

// callError is one attempt's failure, classified.
type callError struct {
	kind     errKind
	endpoint string
	status   int
	canceled bool
	err      error
}

func (e *callError) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("%s answered %d: %v", e.endpoint, e.status, e.err)
	}
	return fmt.Sprintf("%s: %v", e.endpoint, e.err)
}

func (e *callError) Unwrap() error   { return e.err }
func (e *callError) retryable() bool { return e.kind == kindRetryable }

// outcomeFor maps an attempt verdict onto the bounded outcome label set
// of fleet_attempt_seconds.
func outcomeFor(ce *callError) string {
	switch {
	case ce == nil:
		return OutcomeSuccess
	case ce.canceled:
		return OutcomeCanceled
	case ce.kind == kindPermanent:
		return OutcomeRejected
	case ce.kind == kindJobFailed:
		return OutcomeJobFailed
	}
	return OutcomeError
}

// call performs one POST /run attempt against one endpoint: it mints
// the attempt's child span, times the wire call, classifies the outcome
// into the attempt-latency histogram, and — when an Observer is
// attached — records the attempt span on the endpoint's track and
// stitches the worker's returned timeline under it.
func (r *Runner) call(ctx context.Context, body []byte, ep *endpoint, d *dispatch, attempt int) (*stats.Run, *callError) {
	r.m.attempts.Add(1)
	ep.attempts.Add(1)
	ep.inflight.Add(1)
	defer ep.inflight.Add(-1)
	var attemptTC svcobs.TraceContext
	if d != nil {
		attemptTC = d.tc.Child()
	}
	start := time.Now()
	run, tlWire, ce := r.callOnce(ctx, body, ep, attemptTC)
	elapsed := time.Since(start)
	outcome := outcomeFor(ce)
	r.m.attemptSeconds.Observe(elapsed.Seconds(), ep.url, outcome)
	if d != nil && r.obs != nil {
		args := map[string]any{
			"trace_id": attemptTC.TraceID, "span_id": attemptTC.SpanID,
			"parent_span_id": d.tc.SpanID, "outcome": outcome, "retry": attempt,
		}
		if ce == nil {
			// The successful attempt is the one whose record the caller
			// keeps — failed tries never are.
			args["winner"] = true
		} else if ce.status != 0 {
			args["status"] = ce.status
		}
		r.obs.Tracer.AddSpan(ep.url, "attempt", "fleet", start, elapsed, args)
		if tlWire != "" {
			var ts svcobs.TimelineSummary
			if json.Unmarshal([]byte(tlWire), &ts) == nil {
				r.obs.Tracer.AddTimeline(ep.url, &ts)
			}
		}
	}
	return run, ce
}

// callOnce is the raw wire call: one POST /run, one classified verdict,
// exactly one breaker report (Success/Failure/Release) per admitted
// call. On success it also returns the worker's X-Ladm-Timeline header
// ("" when the worker predates it or tracing is off).
func (r *Runner) callOnce(ctx context.Context, body []byte, ep *endpoint, attemptTC svcobs.TraceContext) (*stats.Run, string, *callError) {
	actx, cancel := context.WithTimeout(ctx, r.lim.attemptTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(actx, http.MethodPost, ep.url+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, "", r.fail(ctx, ep, &callError{kind: kindPermanent, endpoint: ep.url, err: err})
	}
	httpReq.Header.Set("Content-Type", "application/json")
	id := svcobs.RequestIDFrom(ctx)
	if id == "" && attemptTC.Valid() {
		// Each traced attempt gets its own correlation ID — the attempt
		// span ID — so the worker's log lines for this exact attempt,
		// retries included, correlate with the dispatcher's.
		id = attemptTC.SpanID
	}
	if id != "" {
		httpReq.Header.Set("X-Request-ID", id)
	}
	if attemptTC.Valid() {
		httpReq.Header.Set(svcobs.TraceparentHeader, attemptTC.Traceparent())
	}
	resp, err := r.client.Do(httpReq)
	if err != nil {
		return nil, "", r.fail(ctx, ep, &callError{kind: kindRetryable, endpoint: ep.url, err: err})
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, "", r.fail(ctx, ep, &callError{
			kind: kindRetryable, endpoint: ep.url,
			err: fmt.Errorf("reading response: %w", err)})
	}
	var view simsvc.JobView
	decodeErr := json.Unmarshal(data, &view)
	switch {
	case resp.StatusCode == http.StatusOK:
		if decodeErr != nil || view.Run == nil || view.Run.Run == nil {
			return nil, "", r.fail(ctx, ep, &callError{
				kind: kindRetryable, endpoint: ep.url,
				err: fmt.Errorf("malformed 200 response (%d bytes): %v", len(data), decodeErr)})
		}
		ep.successes.Add(1)
		ep.br.Success()
		return view.Run.Run, resp.Header.Get(svcobs.TimelineHeader), nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The endpoint is alive and rejected the request
		// deterministically; that is a healthy verdict for the breaker
		// and a dead end for the retry loop.
		ep.br.Success()
		return nil, "", &callError{kind: kindPermanent, endpoint: ep.url,
			status: resp.StatusCode, err: errors.New(errText(data))}
	case decodeErr == nil && view.Status == simsvc.StatusFailed && view.Error != "":
		// The server worked; the job itself failed. Not the endpoint's
		// fault, not retryable — the degrade run reproduces the failure
		// locally with the authoritative error.
		ep.br.Success()
		return nil, "", &callError{kind: kindJobFailed, endpoint: ep.url,
			status: resp.StatusCode, err: errors.New(view.Error)}
	default:
		return nil, "", r.fail(ctx, ep, &callError{kind: kindRetryable, endpoint: ep.url,
			status: resp.StatusCode, err: errors.New(errText(data))})
	}
}

// fail reports a failed call to the endpoint's breaker — unless the
// caller's context was canceled, in which
// case the admission is released without a verdict: a canceled call
// says nothing about endpoint health.
func (r *Runner) fail(ctx context.Context, ep *endpoint, ce *callError) *callError {
	if ctx.Err() != nil {
		ce.canceled = true
		ep.br.Release()
		return ce
	}
	ep.failures.Add(1)
	ep.br.Failure(time.Now())
	return ce
}

// errText extracts the "error" field of a JSON error body, falling back
// to a bounded raw prefix.
func errText(data []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(data))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	if s == "" {
		s = "(empty body)"
	}
	return s
}

// Endpoints snapshots per-endpoint breaker state for /statusz.
func (r *Runner) Endpoints() []simsvc.FleetEndpoint {
	now := time.Now()
	out := make([]simsvc.FleetEndpoint, len(r.eps))
	for i, ep := range r.eps {
		state, since := ep.br.StateSince()
		out[i] = simsvc.FleetEndpoint{
			URL:            ep.url,
			Breaker:        state.String(),
			BreakerSeconds: now.Sub(since).Seconds(),
			Attempts:       ep.attempts.Load(),
			Failures:       ep.failures.Load(),
			Successes:      ep.successes.Load(),
			InFlight:       ep.inflight.Load(),
		}
	}
	return out
}
