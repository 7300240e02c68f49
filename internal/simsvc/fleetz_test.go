package simsvc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"ladm/internal/core"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// stubFleet is a canned Fleet implementation for handler tests.
type stubFleet struct {
	workers []FleetWorker
}

func (f *stubFleet) ExecRequest(ctx context.Context, req Request, job core.Job) (*stats.Run, error) {
	return &stats.Run{Workload: job.Workload.Name}, nil
}

func (f *stubFleet) Endpoints() []FleetEndpoint {
	eps := make([]FleetEndpoint, len(f.workers))
	for i, w := range f.workers {
		eps[i] = w.FleetEndpoint
	}
	return eps
}

func (f *stubFleet) Cluster(ctx context.Context) []FleetWorker { return f.workers }
func (f *stubFleet) Registry() *svcobs.Registry                { return nil }

// TestFleetzHandler pins the /fleetz contract: 404 on a plain worker,
// JSON roll-up and HTML view on a front end, 400 on a bogus format.
func TestFleetzHandler(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)

	r, err := http.Get(ts.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("fleetz without fleet: status = %d, want 404", r.StatusCode)
	}

	live := FleetWorker{
		FleetEndpoint: FleetEndpoint{URL: "http://a:1", Breaker: "closed", BreakerSeconds: 12},
		Statusz: &Statusz{
			Pool:    StatuszPool{QueueDepth: 3, Running: 2, QueueCap: 16},
			Jobs:    StatuszJobs{Submitted: 10, Completed: 8},
			Cache:   StatuszCache{Hits: 2},
			Store:   &StatuszStore{Hits: 4, Misses: 4},
			Tier:    StatuszTier{Analytic: 5, Escalated: 3},
			Metrics: map[string]float64{"simsvc_tracked_jobs": 10},
		},
		Attempts: []FleetAttemptDigest{{Outcome: "success", Count: 8, MeanSeconds: 0.02}},
	}
	dead := FleetWorker{
		FleetEndpoint: FleetEndpoint{URL: "http://b:2", Breaker: "open", BreakerSeconds: 7},
		Error:         "connection refused",
	}
	srv.SetFleet(&stubFleet{workers: []FleetWorker{live, dead}})

	r, err = http.Get(ts.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", r.StatusCode, body)
	}
	var fz Fleetz
	if err := json.Unmarshal(body, &fz); err != nil {
		t.Fatalf("fleetz is not JSON: %v", err)
	}
	s := fz.Summary
	if s.Workers != 2 || s.Reachable != 1 || s.BreakersOpen != 1 {
		t.Fatalf("cluster shape = %+v", s)
	}
	if s.QueueDepth != 3 || s.Submitted != 10 || s.Completed != 8 {
		t.Fatalf("merged load = %+v", s)
	}
	if s.CacheHitRate != 0.2 || s.StoreHitRate != 0.5 {
		t.Fatalf("hit rates = %g / %g, want 0.2 / 0.5", s.CacheHitRate, s.StoreHitRate)
	}
	if len(fz.Workers) != 2 || fz.Workers[1].Error == "" {
		t.Fatalf("workers = %+v", fz.Workers)
	}
}

// TestTimelineExport pins the worker side of trace stitching: a finished
// /run response carries its timeline summary in the X-Ladm-Timeline
// header, parented under the caller's traceparent.
func TestTimelineExport(t *testing.T) {
	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: j.Workload.Name, Cycles: 1}, nil
	}})
	t.Cleanup(pool.Close)
	srv := NewServer(pool)
	obs := svcobs.NewObserver(nil)
	srv.SetObserver(obs)
	ts := httptest.NewServer(svcobs.Middleware(obs, RouteLabel, srv.Handler()))
	t.Cleanup(ts.Close)

	attempt := svcobs.NewTraceContext()
	req, _ := http.NewRequest("POST", ts.URL+"/run",
		strings.NewReader(`{"workload":"vecadd"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "rid-stitch-1")
	req.Header.Set(svcobs.TraceparentHeader, attempt.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}

	wire := resp.Header.Get(svcobs.TimelineHeader)
	if wire == "" {
		t.Fatal("no X-Ladm-Timeline header on a finished run")
	}
	var sum svcobs.TimelineSummary
	if err := json.Unmarshal([]byte(wire), &sum); err != nil {
		t.Fatalf("timeline header is not JSON: %v (%q)", err, wire)
	}
	if sum.TraceID != attempt.TraceID || sum.ParentSpanID != attempt.SpanID {
		t.Fatalf("timeline parentage %+v, want trace %s under span %s",
			sum, attempt.TraceID, attempt.SpanID)
	}
	if sum.RequestID != "rid-stitch-1" || sum.EndUS <= sum.StartUS || len(sum.Stages) == 0 {
		t.Fatalf("timeline summary incomplete: %+v", sum)
	}

	// The header is the only export: there is no pull-side endpoint.
	dr, err := http.Get(ts.URL + "/debug/timeline/rid-stitch-1")
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/timeline/{id} status = %d, want 404", dr.StatusCode)
	}
}

// TestTimelineHeaderOnlyForTracedCallers: on an observed server, a
// /run without a traceparent gets no X-Ladm-Timeline header, though its
// request ID still names it on /statusz; a traced /run gets a header
// the dispatcher's tracer stitches.
func TestTimelineHeaderOnlyForTracedCallers(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 1, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		return &stats.Run{Workload: j.Workload.Name, Cycles: 1}, nil
	}})
	t.Cleanup(pool.Close)
	srv := NewServer(pool)
	obs := svcobs.NewObserver(nil)
	srv.SetObserver(obs)
	ts := httptest.NewServer(svcobs.Middleware(obs, RouteLabel, srv.Handler()))
	t.Cleanup(ts.Close)

	run := func(rid, traceparent string) string {
		t.Helper()
		req, _ := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(`{"workload":"vecadd"}`))
		req.Header.Set("X-Request-ID", rid)
		if traceparent != "" {
			req.Header.Set(svcobs.TraceparentHeader, traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp.Header.Get(svcobs.TimelineHeader)
	}

	if h := run("rid-untraced", ""); h != "" {
		t.Fatalf("untraced /run got a timeline header: %q", h)
	}
	// The untraced job still correlates by request ID on /statusz.
	sr, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statusz
	err = json.NewDecoder(sr.Body).Decode(&st)
	sr.Body.Close()
	if err != nil || len(st.Slowest) == 0 || st.Slowest[0].RequestID != "rid-untraced" {
		t.Fatalf("statusz slowest = %+v (%v), want rid-untraced first", st.Slowest, err)
	}

	wire := run("rid-traced", svcobs.NewTraceContext().Traceparent())
	var sum svcobs.TimelineSummary
	if err := json.Unmarshal([]byte(wire), &sum); err != nil {
		t.Fatalf("traced /run timeline header %q: %v", wire, err)
	}
	tr := svcobs.NewObserver(nil).Tracer
	tr.AddTimeline(ts.URL, &sum)
	if tr.Len() == 0 {
		t.Fatalf("tracer stitched nothing from %q", wire)
	}
}

// TestTimelineExportOffByDefault: without an observer-backed timeline
// there is no header — the export is strictly pay-for-use.
func TestTimelineExportOffByDefault(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	resp, _ := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if h := resp.Header.Get(svcobs.TimelineHeader); h != "" {
		t.Fatalf("unobserved run exported a timeline: %q", h)
	}
}
