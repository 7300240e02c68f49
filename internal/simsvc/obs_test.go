package simsvc

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// obsRecorder collects slog records in memory for correlation checks.
type obsRecorder struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (h *obsRecorder) Enabled(context.Context, slog.Level) bool { return true }

func (h *obsRecorder) Handle(_ context.Context, rec slog.Record) error {
	m := map[string]string{"msg": rec.Message}
	rec.Attrs(func(a slog.Attr) bool {
		m[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, m)
	h.mu.Unlock()
	return nil
}

func (h *obsRecorder) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *obsRecorder) WithGroup(string) slog.Handler      { return h }

func (h *obsRecorder) records() []map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]map[string]string(nil), h.recs...)
}

// TestRequestIDCorrelation pins the end-to-end correlation contract: one
// X-Request-ID on POST /run is echoed on the response and stamped on
// every structured log line the job produces — at the edge, in the
// registry, in the store probe, in the tier oracle and in the pool.
func TestRequestIDCorrelation(t *testing.T) {
	rec := &obsRecorder{}
	obs := svcobs.NewObserver(svcobs.WrapLogger(rec))

	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: j.Workload.Name, Cycles: 1}, nil
	}})
	t.Cleanup(pool.Close)
	srv := NewServer(pool)
	srv.SetObserver(obs)
	store, err := NewDiskStore(t.TempDir(), 0, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv.SetStore(store)

	ts := httptest.NewServer(svcobs.Middleware(obs, RouteLabel, srv.Handler()))
	t.Cleanup(ts.Close)

	const rid = "rid-correlation-1"
	// lbm under fidelity=auto escalates (data-dependent gather), so the
	// tier-escalation log line fires too.
	body := strings.NewReader(`{"workload":"lbm","fidelity":"auto"}`)
	req, _ := http.NewRequest("POST", ts.URL+"/run", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("response X-Request-ID = %q, want %q", got, rid)
	}

	wantMsgs := []string{
		"simsvc: job received",
		"simsvc: store probe miss",
		"simsvc: tier escalation",
		"simsvc: job executing",
		"simsvc: job simulated",
		"simsvc: job finished",
		"http request",
	}
	recs := rec.records()
	for _, want := range wantMsgs {
		found := false
		for _, r := range recs {
			if r["msg"] != want {
				continue
			}
			found = true
			if r["request_id"] != rid {
				t.Errorf("log %q has request_id = %q, want %q", want, r["request_id"], rid)
			}
		}
		if !found {
			msgs := make([]string, len(recs))
			for i, r := range recs {
				msgs[i] = r["msg"]
			}
			t.Errorf("no log line %q (got %v)", want, msgs)
		}
	}
	// The escalation line names its bounded class.
	for _, r := range recs {
		if r["msg"] == "simsvc: tier escalation" && r["class"] != "data-dependent" {
			t.Errorf("escalation class = %q, want data-dependent", r["class"])
		}
	}
}

// TestTierEscalationReasonMetric pins the labeled escalation counter on
// /metrics next to the unlabeled total existing dashboards scrape.
func TestTierEscalationReasonMetric(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	resp, data := postJSON(t, ts.URL+"/run", Request{Workload: "lbm", Fidelity: FidelityAuto})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	text := string(body)
	for _, want := range []string{
		"simsvc_tier_escalations_total 1",
		`simsvc_tier_escalations_total{reason="data-dependent"} 1`,
		"# TYPE simsvc_job_wall_seconds histogram",
		"simsvc_job_wall_seconds_bucket",
		"simsvc_job_wall_seconds_sum",
		"simsvc_job_wall_seconds_count 1",
		"# TYPE simsvc_job_stage_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStatuszSchema checks the JSON document shape.
func TestStatuszSchema(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})

	r, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", r.StatusCode, body)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("statusz is not JSON: %v", err)
	}
	for _, key := range []string{
		"service", "time", "uptime_seconds", "pool", "jobs", "cache",
		"tier", "in_flight", "slowest",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("statusz missing key %q:\n%s", key, body)
		}
	}
	var st Statusz
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Service != "ladmserve" || st.UptimeSeconds <= 0 {
		t.Errorf("service/uptime = %q/%g", st.Service, st.UptimeSeconds)
	}
	if st.Jobs.Completed != 1 || st.Pool.Workers != 2 || st.Pool.QueueCap <= 0 {
		t.Errorf("counters = %+v %+v", st.Jobs, st.Pool)
	}
	if len(st.Slowest) != 1 {
		t.Fatalf("slowest = %d entries, want 1", len(st.Slowest))
	}
	stages := st.Slowest[0].Stages
	if _, ok := stages[svcobs.StageCompute]; !ok {
		t.Errorf("finished job has no compute stage: %v", stages)
	}
	if _, ok := stages[svcobs.StageQueue]; !ok {
		t.Errorf("finished job has no queue stage: %v", stages)
	}

	// Like every other GET route, /statusz ignores its query string.
	qr, err := http.Get(ts.URL + "/statusz?format=html")
	if err != nil {
		t.Fatal(err)
	}
	var again Statusz
	err = json.NewDecoder(qr.Body).Decode(&again)
	qr.Body.Close()
	if err != nil || qr.StatusCode != http.StatusOK ||
		qr.Header.Get("Content-Type") != "application/json" || again.Service != "ladmserve" {
		t.Errorf("/statusz?format=html: status %d, ct %q, err %v",
			qr.StatusCode, qr.Header.Get("Content-Type"), err)
	}
}

// TestStageHistogramSeparatesQueueFromCompute runs a deliberately slow
// job on a one-worker pool with a second job stuck behind it, and checks
// that /statusz shows one job computing and one queued, and that the
// stage histogram attributes the second job's time to queue_wait rather
// than compute.
func TestStageHistogramSeparatesQueueFromCompute(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 4)
	release := make(chan struct{})
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 4,
		Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	srv := NewServer(pool)
	m := pool.Metrics()

	done := make(chan struct{}, 2)
	rec1 := srv.register(context.Background(), Request{Workload: "vecadd", Scale: 8}.Normalize())
	go func() { srv.execute(context.Background(), rec1); done <- struct{}{} }()
	<-started // worker busy on job 1
	rec2 := srv.register(context.Background(), Request{Workload: "vecadd", Scale: 9}.Normalize())
	go func() { srv.execute(context.Background(), rec2); done <- struct{}{} }()
	waitFor(t, func() bool { return m.depth.Load() > 0 })

	time.Sleep(60 * time.Millisecond)
	st := srv.Statusz()
	inStage := map[string]int{}
	for _, fl := range st.InFlight {
		inStage[fl.Stage]++
	}
	if inStage[svcobs.StageCompute] != 1 || inStage[svcobs.StageQueue] != 1 {
		t.Errorf("in-flight stages = %v, want one compute and one queue_wait", inStage)
	}
	if st.Pool.OldestQueuedSeconds < 0.03 {
		t.Errorf("oldest queued = %g, want >= 0.03", st.Pool.OldestQueuedSeconds)
	}

	close(release)
	<-done
	<-done

	obs := srv.Observer()
	q := obs.Stage.With(svcobs.StageQueue, "event")
	c := obs.Stage.With(svcobs.StageCompute, "event")
	if q.Count() < 1 || c.Count() < 2 {
		t.Fatalf("stage counts: queue %d, compute %d", q.Count(), c.Count())
	}
	if q.Sum() < 0.05 {
		t.Errorf("queue_wait sum = %g, want >= 0.05 (job 2 waited behind the blocker)", q.Sum())
	}
	if c.Sum() < 0.05 {
		t.Errorf("compute sum = %g, want >= 0.05 (job 1 blocked in the simulator)", c.Sum())
	}
	// Per-job attribution: the stuck job's time is queue wait, not compute.
	var job2 *svcobs.JobSummary
	for _, js := range obs.Slowest(4) {
		if js.Name == rec2.id {
			job2 = &js
			break
		}
	}
	if job2 == nil {
		t.Fatal("job 2 missing from the slowest ring")
	}
	if job2.Stages[svcobs.StageQueue] < 0.05 ||
		job2.Stages[svcobs.StageQueue] <= job2.Stages[svcobs.StageCompute] {
		t.Errorf("job 2 stages = %v, want queue_wait >= 0.05 and > compute", job2.Stages)
	}
	if n := m.wall.Count(); n != 2 {
		t.Errorf("wall histogram count = %d, want 2", n)
	}
}

// TestServiceTraceEndpoint checks /debug/servicetrace returns a valid
// Chrome trace with spans for finished jobs.
func TestServiceTraceEndpoint(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})

	r, err := http.Get(ts.URL + "/debug/servicetrace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("service trace has no spans: %d events", len(doc.TraceEvents))
	}
}

// TestRouteLabel pins the bounded route-label set.
func TestRouteLabel(t *testing.T) {
	cases := map[string]string{
		"/run":                          "/run",
		"/sweep":                        "/sweep",
		"/jobs":                         "other",
		"/jobs/job-000001":              "/jobs/{id}",
		"/jobs/abc/telemetry":           "/jobs/{id}/telemetry",
		"/jobs/abc/events":              "/jobs/{id}/events",
		"/sweeps/sweep-000001":          "other",
		"/sweeps/abc/events":            "other",
		"/metrics":                      "/metrics",
		"/statusz":                      "/statusz",
		"/fleetz":                       "/fleetz",
		"/debug/servicetrace":           "/debug/servicetrace",
		"/debug/pprof/profile":          "/debug/pprof",
		"/debug/timeline/x":             "other",
		"/jobs/a/b/c":                   "other",
		"/totally/made/up":              "other",
		"/" + strings.Repeat("x", 2000): "other",
	}
	for path, want := range cases {
		r := httptest.NewRequest("GET", path, nil)
		if got := RouteLabel(r); got != want {
			t.Errorf("RouteLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
