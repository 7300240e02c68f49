package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/stats"
)

// newTestService starts an httptest server over a pool with a fake
// simulator that labels records by workload name.
func newTestService(t *testing.T, calls *atomic.Int64) (*httptest.Server, *Server) {
	t.Helper()
	pool := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{
			Workload: j.Workload.Name, Policy: j.Policy.Name, Arch: j.Arch.Name,
			Cycles: 12345, WarpInstrs: 1000, L2SectorMisses: 50,
		}, nil
	}})
	t.Cleanup(pool.Close)
	srv := NewServer(pool)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerRunSyncAndCache(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 8}
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Cached || v.Run == nil {
		t.Fatalf("view = %+v", v)
	}
	if v.Run.Cycles != 12345 || v.Run.Derived.MPKI != 50 {
		t.Errorf("payload = %+v", v.Run)
	}

	// The identical request is served from the cache without simulating.
	resp, body = postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached || v.Status != StatusDone {
		t.Errorf("second run: %+v", v)
	}
	if calls.Load() != 1 {
		t.Errorf("simulate calls = %d, want 1", calls.Load())
	}
}

func TestServerRunBadRequests(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	cases := []struct {
		body any
		want string
	}{
		{Request{Workload: "nope"}, "valid:"},
		{Request{Workload: "vecadd", Policy: "nope"}, "valid:"},
		{Request{Workload: "vecadd", Machine: "nope"}, "valid:"},
		{Request{}, "missing workload"},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/run", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d", c.body, resp.StatusCode)
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%+v: body %s missing %q", c.body, body, c.want)
		}
	}
	// Malformed JSON.
	resp, _ := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{nope"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestServerRunAsyncAndJobPoll(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	resp, body := postJSON(t, ts.URL+"/run",
		map[string]any{"workload": "vecadd", "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("no job id")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == StatusDone {
			break
		}
		if v.Status == StatusFailed || time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v.Run == nil || v.Run.Workload != "vecadd" {
		t.Errorf("polled run = %+v", v.Run)
	}
}

func TestServerSweepDedupesIdenticalCells(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	resp, body := postJSON(t, ts.URL+"/sweep", map[string]any{
		"workloads": []string{"vecadd", "vecadd"},
		"policies":  []string{"ladm", "h-coda"},
		"scale":     8,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var sv SweepView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if len(sv.Jobs) != 4 {
		t.Fatalf("cells = %d, want 4", len(sv.Jobs))
	}
	if !sv.Done || sv.Completed != 4 || sv.Total != 4 {
		t.Errorf("sweep envelope = %+v", sv)
	}
	for i, v := range sv.Jobs {
		if v.Status != StatusDone || v.Run == nil {
			t.Errorf("cell %d: %+v", i, v)
		}
	}
	// 2 duplicated workloads x 2 policies -> only 2 distinct jobs simulate;
	// single-flight/cache serves the duplicates.
	if calls.Load() != 2 {
		t.Errorf("simulate calls = %d, want 2", calls.Load())
	}
}

// TestServerSweepAsync: an async sweep answers 202 at once with its
// cells' job views and no sweep id; every cell is then followed through
// GET /jobs/{id}. There is no sweep registry and no job listing.
func TestServerSweepAsync(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	resp, body := postJSON(t, ts.URL+"/sweep", map[string]any{
		"workloads": []string{"vecadd", "sq-gemm"},
		"policies":  []string{"ladm", "h-coda"},
		"scale":     8,
		"async":     true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var envelope map[string]json.RawMessage
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatal(err)
	}
	if _, ok := envelope["id"]; ok {
		t.Errorf("async sweep envelope has an id: %s", body)
	}
	var sv SweepView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Total != 4 || len(sv.Jobs) != 4 {
		t.Fatalf("sweep envelope = %+v", sv)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, cell := range sv.Jobs {
		for {
			r, data := getBody(t, ts.URL+"/jobs/"+cell.ID)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("GET /jobs/%s: %d %s", cell.ID, r.StatusCode, data)
			}
			var v JobView
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status == StatusDone {
				if v.Run == nil || v.Run.Workload != cell.Request.Workload {
					t.Errorf("cell %s run = %+v", cell.ID, v.Run)
				}
				break
			}
			if finishedStatus(v.Status) || time.Now().After(deadline) {
				t.Fatalf("cell %s never completed: %+v", cell.ID, v)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, path := range []string{"/sweeps/x", "/sweeps/x/events", "/jobs"} {
		if r, _ := getBody(t, ts.URL+path); r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, r.StatusCode)
		}
	}
}

func TestServerSweepValidatesBeforeRunning(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	resp, body := postJSON(t, ts.URL+"/sweep", map[string]any{
		"workloads": []string{"vecadd", "nope"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if calls.Load() != 0 {
		t.Errorf("invalid sweep still simulated %d jobs", calls.Load())
	}
	resp, _ = postJSON(t, ts.URL+"/sweep", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty sweep: status = %d", resp.StatusCode)
	}
}

// TestServerJobsListAndNotFound: there is no job listing, and an
// unknown job id is a 404.
func TestServerJobsListAndNotFound(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	for _, path := range []string{"/jobs", "/jobs/job-999999"} {
		if r, _ := getBody(t, ts.URL+path); r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, r.StatusCode)
		}
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"}) // cache hit
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", r.StatusCode)
	}
	body, _ := io.ReadAll(r.Body)
	text := string(body)
	for _, want := range []string{
		"simsvc_jobs_completed_total 1",
		"simsvc_jobs_cached_total 1",
		"simsvc_cache_entries 1",
		"simsvc_tracked_jobs 2",
		"simsvc_job_wall_seconds_sum",
		"simsvc_simulated_cycles_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerEndToEndRealPipeline exercises POST /run and GET /metrics
// against the real LADM simulation pipeline (no fake simulator): the
// acceptance path of the service.
func TestServerEndToEndRealPipeline(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/run",
		Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Run == nil {
		t.Fatalf("view = %+v", v)
	}
	if v.Run.Cycles <= 0 || v.Run.TBs <= 0 {
		t.Errorf("implausible record: cycles=%v tbs=%d", v.Run.Cycles, v.Run.TBs)
	}
	if v.Run.Workload != "vecadd" || v.Run.Policy != "ladm" {
		t.Errorf("record identity: %s/%s", v.Run.Workload, v.Run.Policy)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	text, _ := io.ReadAll(r.Body)
	if !strings.Contains(string(text), "simsvc_jobs_completed_total 1") {
		t.Errorf("metrics after real run:\n%s", text)
	}
	if !strings.Contains(string(text), "simsvc_simulated_cycles_total") {
		t.Errorf("metrics missing cycle counter:\n%s", text)
	}
}

// TestServerAsyncBackpressure drives the async path into a full queue
// and expects 503 + Retry-After.
func TestServerAsyncBackpressure(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 1,
		Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	defer close(release)
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	// First async job occupies the worker; scales differ so no dedup.
	resp, body := postJSON(t, ts.URL+"/run", map[string]any{
		"workload": "vecadd", "scale": 8, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d %s", resp.StatusCode, body)
	}
	<-started
	// Second fills the queue slot.
	waitFor(t, func() bool {
		resp, _ := postJSON(t, ts.URL+"/run", map[string]any{
			"workload": "vecadd", "scale": 9, "async": true})
		return resp.StatusCode == http.StatusAccepted
	})
	// With worker busy and queue full, the next async submit is rejected.
	waitFor(t, func() bool {
		resp, body := postJSON(t, ts.URL+"/run", map[string]any{
			"workload": "vecadd", "scale": 10, "async": true})
		if resp.StatusCode != http.StatusServiceUnavailable {
			return false
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("503 without Retry-After")
		}
		if !strings.Contains(string(body), "queue full") {
			t.Errorf("503 body: %s", body)
		}
		return true
	})
}

// TestAsyncAdmissionAfterAbandonedCallers: sync callers that give up
// while queued leave depth at once. Async submissions that then wait
// for the busy worker must count, so after QueueDepth of them the next
// one is turned away with 503 rather than parked in a goroutine.
func TestAsyncAdmissionAfterAbandonedCallers(t *testing.T) {
	const queueDepth = 3
	started := make(chan string, 16)
	release := make(chan struct{})
	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: queueDepth,
		Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	defer close(release)
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()
	m := pool.Metrics()

	// Scales differ throughout, so no request joins another's flight.
	resp, body := postJSON(t, ts.URL+"/run", map[string]any{
		"workload": "vecadd", "scale": 8, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker: %d %s", resp.StatusCode, body)
	}
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, queueDepth)
	for i := 0; i < queueDepth; i++ {
		buf, _ := json.Marshal(map[string]any{"workload": "vecadd", "scale": 9 + i})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
			bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			abandoned <- err
		}()
	}
	waitFor(t, func() bool { return m.depth.Load() == queueDepth })
	cancel()
	for i := 0; i < queueDepth; i++ {
		if err := <-abandoned; err == nil {
			t.Error("abandoned sync /run returned a response")
		}
	}
	waitFor(t, func() bool { return m.canceled.Load() == queueDepth && m.depth.Load() == 0 })

	for i := 0; i < queueDepth; i++ {
		resp, body := postJSON(t, ts.URL+"/run", map[string]any{
			"workload": "vecadd", "scale": 20 + i, "async": true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async %d: %d %s", i, resp.StatusCode, body)
		}
		waitFor(t, func() bool { return m.depth.Load() == int64(i+1) })
	}
	resp, body = postJSON(t, ts.URL+"/run", map[string]any{
		"workload": "vecadd", "scale": 20 + queueDepth, "async": true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("async past capacity: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if calls.Load() != 1 {
		t.Errorf("simulate calls = %d while the worker is blocked, want 1", calls.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerBodyLimits exercises the request-hardening path: oversized
// bodies get a structured 413, malformed or mistyped JSON a structured
// 400 — never a raw decoder message or an unbounded read.
func TestServerBodyLimits(t *testing.T) {
	ts, srv := newTestService(t, new(atomic.Int64))
	srv.SetMaxBody(256)

	big := `{"workload":"vecadd","pad":"` + strings.Repeat("x", 1024) + `"}`
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status = %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(string(body), "exceeds 256 bytes") {
		t.Errorf("413 body: %s", body)
	}

	resp, err = http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workloads": "not-a-list"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mistyped field: status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "workloads") {
		t.Errorf("type-error body does not name the field: %s", body)
	}

	resp, err = http.Post(ts.URL+"/run", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "invalid JSON") {
		t.Errorf("syntax-error body: %s", body)
	}
}

// TestServerJobTimeout: a job outliving -job-timeout fails with a clear
// deadline error (not a client cancellation) and bumps the timeout
// counter.
func TestServerJobTimeout(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 1, Simulate: func(ctx context.Context, _ core.Job) (*stats.Run, error) {
		<-ctx.Done() // a simulation that never finishes on its own
		return nil, ctx.Err()
	}})
	defer pool.Close()
	srv := NewServer(pool)
	srv.SetJobTimeout(30 * time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed {
		t.Errorf("status = %q, want failed (a server-imposed bound is not a client cancel)", v.Status)
	}
	if !strings.Contains(v.Error, "deadline exceeded") || !strings.Contains(v.Error, "job-timeout") {
		t.Errorf("error = %q", v.Error)
	}
	waitFor(t, func() bool { return pool.Metrics().timeouts.Load() >= 1 })
}
