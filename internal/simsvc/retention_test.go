package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/stats"
)

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return r, data
}

func TestRetentionMaxJobsEvictsOldestFinished(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	srv.SetRetention(2, 0)

	// Distinct scales defeat the cache; each submission registers then
	// triggers eviction of the oldest finished records beyond the cap.
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8 + i})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status = %d: %s", i, resp.StatusCode, body)
		}
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	_, job1 := srv.jobs["job-000001"]
	_, job4 := srv.jobs["job-000004"]
	srv.mu.Unlock()
	if n != 2 {
		t.Errorf("registry size = %d, want 2", n)
	}
	if job1 {
		t.Error("oldest job survived eviction")
	}
	if !job4 {
		t.Error("newest job was evicted")
	}

	r, _ := getBody(t, ts.URL+"/jobs/job-000001")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job status = %d, want 404", r.StatusCode)
	}
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "simsvc_jobs_evicted_total 2") {
		t.Errorf("evicted counter wrong:\n%s", metrics)
	}
	if !strings.Contains(string(metrics), "simsvc_tracked_jobs 2") {
		t.Errorf("tracked-jobs gauge wrong:\n%s", metrics)
	}
}

func TestRetentionTTLDropsStaleRecords(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	srv.SetRetention(0, time.Hour)

	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8})
	// Age the finished record past the TTL by hand (the registry only
	// evicts at registration time, so no sleeping needed).
	srv.mu.Lock()
	srv.jobs["job-000001"].finished = time.Now().Add(-2 * time.Hour)
	srv.mu.Unlock()

	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 9})
	srv.mu.Lock()
	_, stale := srv.jobs["job-000001"]
	_, fresh := srv.jobs["job-000002"]
	srv.mu.Unlock()
	if stale {
		t.Error("record older than the TTL survived")
	}
	if !fresh {
		t.Error("fresh record was evicted")
	}
}

func TestRetentionNeverEvictsInFlightJobs(t *testing.T) {
	// A registry at its cap keeps every in-flight job, even past the
	// cap, and trims finished ones only.
	gates := map[string]chan struct{}{"vecadd": make(chan struct{})}
	ts, srv := gatedService(t, 4, gates)
	srv.SetRetention(3, 0)
	for i := 0; i < 3; i++ {
		runSync(t, ts, Request{Workload: "tra", Scale: 8 + i}) // jobs 1..3, finished
	}
	var live []string
	for i := 0; i < 4; i++ {
		live = append(live, runAsync(t, ts, Request{Workload: "vecadd", Scale: 8 + i})) // jobs 4..7
	}
	// Four in-flight jobs over a cap of three: every finished record
	// went, no live one did.
	wantRegistry(t, srv, live...)
	wantEvicted(t, ts, 3)

	close(gates["vecadd"])
	for _, id := range live {
		waitFinished(t, srv, id)
	}
	runSync(t, ts, Request{Workload: "tra", Scale: 20}) // job-000008
	if got := registryIDs(srv); len(got) != 3 || !slices.Contains(got, "job-000008") {
		t.Errorf("registry = %v, want the newest job and two of its predecessors", got)
	}
	wantEvicted(t, ts, 5)
}

// TestTelemetryEndpoint drives a real simulation with telemetry enabled
// and reads every view of /jobs/{id}/telemetry.
func TestTelemetryEndpoint(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/run",
		Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status = %d: %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone || v.Cached {
		t.Fatalf("view = %+v", v)
	}
	if v.Run == nil || v.Run.Telemetry == nil {
		t.Fatal("record carries no telemetry summary")
	}

	// Default JSON view: summary + full series + trace-event count.
	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("telemetry: status = %d: %s", r.StatusCode, data)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Summary == nil || tv.Summary.Samples <= 0 {
		t.Errorf("summary = %+v", tv.Summary)
	}
	if tv.Series == nil || len(tv.Series.Samples) != tv.Summary.Samples {
		t.Errorf("series = %+v", tv.Series)
	}
	if tv.TraceEvents <= 0 || tv.Cached {
		t.Errorf("view = %+v", tv)
	}

	// CSV view.
	r, data = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=csv")
	if r.StatusCode != http.StatusOK || !strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		t.Fatalf("csv: status = %d type %q", r.StatusCode, r.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(data), "cycle,") {
		t.Errorf("csv header: %.80s", data)
	}

	// Trace view: valid Chrome trace JSON.
	r, data = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("trace: status = %d", r.StatusCode)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != tv.TraceEvents {
		t.Errorf("trace has %d events, view reported %d", len(trace.TraceEvents), tv.TraceEvents)
	}

	// Unknown view.
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=bogus")
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus view: status = %d, want 400", r.StatusCode)
	}

	// Telemetry jobs join the service metrics.
	_, metrics := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "simsvc_telemetry_jobs_total 1") {
		t.Errorf("telemetry job counter missing:\n%s", metrics)
	}
}

// TestTelemetryEndpointCachedJob: an identical telemetry request is
// served from the cache — the shared summary survives, the series and
// trace do not.
func TestTelemetryEndpointCachedJob(t *testing.T) {
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true}
	postJSON(t, ts.URL+"/run", req)
	_, body := postJSON(t, ts.URL+"/run", req)
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Fatalf("second run not cached: %+v", v)
	}

	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("telemetry: status = %d", r.StatusCode)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if !tv.Cached || tv.Summary == nil || tv.Series != nil || tv.TraceEvents != 0 {
		t.Errorf("cached telemetry view = %+v", tv)
	}
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=csv")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("cached csv view: status = %d, want 404", r.StatusCode)
	}
	r, _ = getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=trace")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("cached trace view: status = %d, want 404", r.StatusCode)
	}
}

func TestTelemetryEndpointNonTelemetryJob(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	_, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	r, data := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", r.StatusCode)
	}
	if !strings.Contains(string(data), "telemetry") {
		t.Errorf("404 body should hint at the telemetry flag: %s", data)
	}
	r, _ = getBody(t, ts.URL+"/jobs/job-999999/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status = %d, want 404", r.StatusCode)
	}
}

// TestTelemetryChangesCacheKey: the same cell with and without telemetry
// must not share a cache entry, or an unsampled run would satisfy a
// sampled request.
func TestTelemetryChangesCacheKey(t *testing.T) {
	plain := Request{Workload: "vecadd", Scale: 8}.Normalize()
	sampled := Request{Workload: "vecadd", Scale: 8, Telemetry: true}.Normalize()
	if plain.Key() == sampled.Key() {
		t.Error("telemetry flag does not separate cache keys")
	}
}

// gatedService serves jobs through a fake simulator that holds every
// job of a gated workload until that workload's gate closes; all other
// workloads finish at once. Retention starts unlimited so setting up a
// registry evicts nothing; tests set their limits afterwards.
func gatedService(t *testing.T, workers int, gates map[string]chan struct{}) (*httptest.Server, *Server) {
	t.Helper()
	pool := NewPool(PoolConfig{Workers: workers, QueueDepth: 16,
		Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
			if g, ok := gates[j.Workload.Name]; ok {
				<-g
			}
			return &stats.Run{Workload: j.Workload.Name}, nil
		}})
	t.Cleanup(pool.Close)
	srv := NewServer(pool)
	srv.SetRetention(0, 0)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// runSync posts one synchronous /run and fails the test unless it is done.
func runSync(t *testing.T, ts *httptest.Server, req Request) JobView {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run %+v: status = %d: %s", req, resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// runAsync posts one asynchronous /run and returns its job id.
func runAsync(t *testing.T, ts *httptest.Server, req Request) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/run", runRequest{Request: req, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async run %+v: status = %d: %s", req, resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

// waitFinished blocks until the job has a terminal status.
func waitFinished(t *testing.T, srv *Server, id string) {
	t.Helper()
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		rec := srv.jobs[id]
		return rec != nil && finishedStatus(rec.status)
	})
}

// registryIDs returns the tracked job ids, sorted.
func registryIDs(srv *Server) []string {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ids := make([]string, 0, len(srv.jobs))
	for id := range srv.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func wantRegistry(t *testing.T, srv *Server, want ...string) {
	t.Helper()
	if got := registryIDs(srv); !slices.Equal(got, want) {
		t.Errorf("registry = %v, want %v", got, want)
	}
}

// wantEvicted checks simsvc_jobs_evicted_total as /metrics renders it.
func wantEvicted(t *testing.T, ts *httptest.Server, n int) {
	t.Helper()
	_, metrics := getBody(t, ts.URL+"/metrics")
	want := fmt.Sprintf("simsvc_jobs_evicted_total %d\n", n)
	if !strings.Contains(string(metrics), want) {
		t.Errorf("metrics lack %q", strings.TrimSpace(want))
	}
}

// TestRetentionEvictsInCompletionOrder: jobs that finish out of
// submission order leave the registry in the order they finished, not
// the order they arrived.
func TestRetentionEvictsInCompletionOrder(t *testing.T) {
	names := []string{"vecadd", "sq-gemm", "conv"} // jobs 1, 2, 3
	gates := map[string]chan struct{}{}
	for _, n := range names {
		gates[n] = make(chan struct{})
	}
	ts, srv := gatedService(t, len(names), gates)
	var ids []string
	for _, n := range names {
		ids = append(ids, runAsync(t, ts, Request{Workload: n}))
	}
	// Finish them 3, 1, 2.
	for _, i := range []int{2, 0, 1} {
		close(gates[names[i]])
		waitFinished(t, srv, ids[i])
	}
	srv.SetRetention(2, 0)
	runSync(t, ts, Request{Workload: "tra"}) // job-000004
	// Registering job 4 made four records against a cap of two: the two
	// oldest completions, jobs 3 and 1, went.
	wantRegistry(t, srv, "job-000002", "job-000004")
	wantEvicted(t, ts, 2)
	runSync(t, ts, Request{Workload: "tra", Scale: 9}) // job-000005
	wantRegistry(t, srv, "job-000004", "job-000005")
	wantEvicted(t, ts, 3)
}

// TestRetentionTTLAndCapCombine: at one registration the TTL first drops
// every expired record, then the cap trims the survivors oldest
// completion first; each eviction counts once.
func TestRetentionTTLAndCapCombine(t *testing.T) {
	ts, srv := gatedService(t, 2, nil)
	for i := 0; i < 5; i++ {
		runSync(t, ts, Request{Workload: "vecadd", Scale: 8 + i}) // jobs 1..5
	}
	// The two oldest completions age past the TTL.
	srv.mu.Lock()
	for _, id := range []string{"job-000001", "job-000002"} {
		srv.jobs[id].finished = time.Now().Add(-2 * time.Hour)
	}
	srv.mu.Unlock()
	srv.SetRetention(3, time.Hour)

	runSync(t, ts, Request{Workload: "vecadd", Scale: 20}) // job-000006
	// Six records: the TTL takes jobs 1 and 2, the cap of three takes 3.
	wantRegistry(t, srv, "job-000004", "job-000005", "job-000006")
	wantEvicted(t, ts, 3)

	runSync(t, ts, Request{Workload: "vecadd", Scale: 21}) // job-000007
	wantRegistry(t, srv, "job-000005", "job-000006", "job-000007")
	wantEvicted(t, ts, 4)
}

// TestRetentionShrinkAtRuntime: SetRetention only changes the limits;
// the registry shrinks to them at the next registration.
func TestRetentionShrinkAtRuntime(t *testing.T) {
	ts, srv := gatedService(t, 2, nil)
	for i := 0; i < 6; i++ {
		runSync(t, ts, Request{Workload: "vecadd", Scale: 8 + i}) // jobs 1..6
	}
	srv.SetRetention(2, 0)
	if n := len(registryIDs(srv)); n != 6 {
		t.Fatalf("registry shrank to %d before any registration", n)
	}
	wantEvicted(t, ts, 0)
	runSync(t, ts, Request{Workload: "vecadd", Scale: 20}) // job-000007
	wantRegistry(t, srv, "job-000006", "job-000007")
	wantEvicted(t, ts, 5)

	// Lifting the limits stops eviction; records are kept from then on.
	srv.SetRetention(0, 0)
	runSync(t, ts, Request{Workload: "vecadd", Scale: 21})
	wantRegistry(t, srv, "job-000006", "job-000007", "job-000008")
	wantEvicted(t, ts, 5)
}

// TestRetentionTiesGoInCompletionOrder documents the tie rule: records
// stamped with the same finish time leave in the order they finished —
// the order finishJob queued them — not by id.
func TestRetentionTiesGoInCompletionOrder(t *testing.T) {
	ts, srv := gatedService(t, 1, nil)
	ctx := context.Background()
	first := srv.register(ctx, Request{Workload: "vecadd"}.Normalize())   // job-000001
	second := srv.register(ctx, Request{Workload: "sq-gemm"}.Normalize()) // job-000002
	srv.finishJob(ctx, second, &cacheEntry{run: &stats.Run{}}, false, nil)
	srv.finishJob(ctx, first, &cacheEntry{run: &stats.Run{}}, false, nil)
	srv.mu.Lock()
	second.finished = first.finished // an exact-nanosecond tie
	srv.mu.Unlock()

	srv.SetRetention(2, 0)
	runSync(t, ts, Request{Workload: "tra"}) // job-000003
	wantRegistry(t, srv, "job-000001", "job-000003")
	wantEvicted(t, ts, 1)
}
