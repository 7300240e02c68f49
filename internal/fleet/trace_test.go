package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ladm/internal/core"
	"ladm/internal/faultinject"
	"ladm/internal/simsvc"
	"ladm/internal/simtel"
	"ladm/internal/svcobs"
)

// headerTrap wraps a worker and records every traceparent and
// X-Request-ID that arrives on POST /run.
type headerTrap struct {
	mu     sync.Mutex
	traces []string
	ids    []string
}

func (h *headerTrap) record(r *http.Request) {
	h.mu.Lock()
	h.traces = append(h.traces, r.Header.Get(svcobs.TraceparentHeader))
	h.ids = append(h.ids, r.Header.Get("X-Request-ID"))
	h.mu.Unlock()
}

func (h *headerTrap) snapshot() (traces, ids []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.traces...), append([]string(nil), h.ids...)
}

// trappedWorker is a newWorker variant that captures the trace headers
// of every /run request, with the svcobs middleware installed so the
// worker-side timeline adopts the propagated context. A non-nil
// failFirst, shared between workers, makes the first /run any of them
// receives answer 500.
func trappedWorker(t *testing.T, failFirst *atomic.Bool) (*httptest.Server, *simsvc.Server, *headerTrap) {
	t.Helper()
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 2, Simulate: testSim})
	t.Cleanup(pool.Close)
	srv := simsvc.NewServer(pool)
	trap := &headerTrap{}
	inner := svcobs.Middleware(srv.Observer(), simsvc.RouteLabel, srv.Handler())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			trap.record(r)
			if failFirst != nil && failFirst.CompareAndSwap(false, true) {
				http.Error(w, `{"error":"induced failure"}`, http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, srv, trap
}

// spanEvents filters a tracer dump down to (track name by tid, events).
func trackNames(evs []simtel.Event) map[int]string {
	names := map[int]string{}
	for _, ev := range evs {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			names[ev.TID] = ev.Args["name"].(string)
		}
	}
	return names
}

// TestTracePropagationFailover: under a campaign root, a job whose
// first attempt answers 500 is retried on the other endpoint. The two
// attempts reach different endpoints as sibling spans of one dispatch —
// same trace ID, distinct attempt span IDs — and the tracer records one
// attempt span on each endpoint track, exactly one of them the winner.
func TestTracePropagationFailover(t *testing.T) {
	var failFirst atomic.Bool
	tsA, _, trapA := trappedWorker(t, &failFirst)
	tsB, _, trapB := trappedWorker(t, &failFirst)

	obs := svcobs.NewObserver(nil)
	root := svcobs.NewTraceContext()
	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, tsA.URL, tsB.URL)
	cfg.Observer = obs
	cfg.Trace = root
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	if _, err := core.Sweep(context.Background(), fl, jobs); err != nil {
		t.Fatal(err)
	}
	if r, a := fl.m.retries.Load(), fl.m.attempts.Load(); r != 1 || a != 2 || fl.m.remoteJobs.Load() != 1 {
		t.Fatalf("retries/attempts/remote = %d/%d/%d, want one failover to a remote success",
			r, a, fl.m.remoteJobs.Load())
	}

	tracesA, idsA := trapA.snapshot()
	tracesB, idsB := trapB.snapshot()
	if len(tracesA) != 1 || len(tracesB) != 1 {
		t.Fatalf("each endpoint should have seen one attempt: A=%d B=%d", len(tracesA), len(tracesB))
	}
	attemptSpans := map[string]bool{}
	for _, tp := range append(tracesA, tracesB...) {
		tc, ok := svcobs.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("worker received malformed traceparent %q", tp)
		}
		if tc.TraceID != root.TraceID {
			t.Fatalf("attempt left the campaign trace: %s != %s", tc.TraceID, root.TraceID)
		}
		attemptSpans[tc.SpanID] = true
	}
	if len(attemptSpans) != 2 {
		t.Fatalf("attempt span ids reused: %v", attemptSpans)
	}
	for _, id := range append(idsA, idsB...) {
		if id == "" {
			t.Fatal("traced attempt arrived without a correlation ID")
		}
	}

	evs := obs.Tracer.Events()
	names := trackNames(evs)
	byTrack := map[string][]simtel.Event{}
	for _, ev := range evs {
		if ev.Ph == "X" && (ev.Cat == "dispatch" || ev.Cat == "fleet") {
			byTrack[names[ev.TID]] = append(byTrack[names[ev.TID]], ev)
		}
	}
	if len(byTrack["client"]) != 1 {
		t.Fatalf("dispatch spans on the client track = %d, want 1", len(byTrack["client"]))
	}
	dispatchID := byTrack["client"][0].Args["span_id"]
	var winners int
	for _, track := range []string{tsA.URL, tsB.URL} {
		if len(byTrack[track]) != 1 {
			t.Fatalf("track %s has %d attempt spans, want 1; tracks seen: %v", track, len(byTrack[track]), names)
		}
		ev := byTrack[track][0]
		if ev.Name != "attempt" || ev.Args["parent_span_id"] != dispatchID || !attemptSpans[ev.Args["span_id"].(string)] {
			t.Fatalf("track %s span %s %v is not an attempt under dispatch %v", track, ev.Name, ev.Args, dispatchID)
		}
		if w, _ := ev.Args["winner"].(bool); w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
}

// TestTracePropagationUnderFaults: with deterministic transport faults
// forcing retries, every attempt still carries a fresh child span of
// the same campaign trace, and the attempt histogram classifies both
// the failures and the eventual successes.
func TestTracePropagationUnderFaults(t *testing.T) {
	ts, _, trap := trappedWorker(t, nil)

	spec, err := faultinject.ParseSpec("seed=11,error=0.4")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(spec)

	obs := svcobs.NewObserver(nil)
	root := svcobs.NewTraceContext()
	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, ts.URL)
	cfg.Client = &http.Client{Transport: &faultinject.Transport{Injector: inj}}
	lim.maxAttempts = 6
	lim.breakerThreshold = 100
	cfg.Observer = obs
	cfg.Trace = root
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t,
		[2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"},
		[2]string{"scalarprod", "ladm"}, [2]string{"srad", "ladm"})
	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("traced fault-injected sweep diverged from local")
	}
	if inj.Injected() == 0 {
		t.Fatal("fault plane injected nothing")
	}

	traces, _ := trap.snapshot()
	spans := map[string]bool{}
	for _, tp := range traces {
		tc, ok := svcobs.ParseTraceparent(tp)
		if !ok || tc.TraceID != root.TraceID {
			t.Fatalf("bad attempt traceparent %q", tp)
		}
		spans[tc.SpanID] = true
	}
	if len(spans) != len(traces) {
		t.Fatalf("attempt span ids not unique: %d spans over %d attempts", len(spans), len(traces))
	}

	var buf bytes.Buffer
	fl.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, `fleet_attempt_seconds_count{endpoint="`+ts.URL+`",outcome="success"}`) {
		t.Fatalf("attempt histogram missing success outcome:\n%s", out)
	}
	if fl.m.retries.Load() > 0 && !strings.Contains(out, `outcome="error"`) {
		t.Fatalf("retries happened but no error-outcome attempts recorded:\n%s", out)
	}
}

// TestUntracedStaysBare: with no Observer and no campaign root, no
// trace headers leave the dispatcher and no spans are recorded — the
// distributed plane is pay-for-use — while the attempt histogram (a
// plain metric, not a trace) still fills.
func TestUntracedStaysBare(t *testing.T) {
	ts, _, trap := trappedWorker(t, nil)
	local := core.RunFunc(testSim)
	fl, err := newRunner(testConfig(local, ts.URL))
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	if _, err := core.Sweep(context.Background(), fl, jobs); err != nil {
		t.Fatal(err)
	}
	traces, _ := trap.snapshot()
	for _, tp := range traces {
		if tp != "" {
			t.Fatalf("untraced attempt sent traceparent %q", tp)
		}
	}
	var buf bytes.Buffer
	fl.WriteProm(&buf)
	if !strings.Contains(buf.String(), "fleet_attempt_seconds_count") {
		t.Fatalf("attempt histogram should fill without an observer:\n%s", buf.String())
	}
}

// TestClusterScrape: the /fleetz aggregation joins the dispatcher's
// endpoint view (with attempt digests) to every worker's self-reported
// /statusz and /metrics.
func TestClusterScrape(t *testing.T) {
	tsA, _, _ := trappedWorker(t, nil)
	tsB, _, _ := trappedWorker(t, nil)
	local := core.RunFunc(testSim)
	fl, err := newRunner(testConfig(local, tsA.URL, tsB.URL))
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"})
	if _, err := core.Sweep(context.Background(), fl, jobs); err != nil {
		t.Fatal(err)
	}

	workers := fl.Cluster(context.Background())
	if len(workers) != 2 {
		t.Fatalf("cluster has %d workers, want 2", len(workers))
	}
	var digests int
	for _, w := range workers {
		if w.Error != "" || w.Statusz == nil {
			t.Fatalf("worker %s scrape failed: %+v", w.URL, w.Error)
		}
		if w.Statusz.Jobs.Submitted == 0 {
			t.Fatalf("worker %s reports no submitted jobs", w.URL)
		}
		if _, ok := w.Statusz.Metrics["simsvc_tracked_jobs"]; !ok {
			t.Fatalf("worker %s metrics scrape missing scalars: %v", w.URL, w.Statusz.Metrics)
		}
		digests += len(w.Attempts)
	}
	if digests == 0 {
		t.Fatal("no attempt digests after a remote sweep")
	}

	// An unreachable worker stays listed from the dispatcher's side.
	gone := httptest.NewServer(http.NotFoundHandler())
	url := gone.URL
	gone.Close()
	cfg, lim := testConfig(local, url)
	fl2, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}
	ws := fl2.Cluster(context.Background())
	if len(ws) != 1 || ws[0].Error == "" || ws[0].Statusz != nil {
		t.Fatalf("dead worker should scrape-fail but stay listed: %+v", ws)
	}
}
