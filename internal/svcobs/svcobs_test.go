package svcobs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// memHandler collects slog records in memory for assertion.
type memHandler struct {
	mu   sync.Mutex
	recs []map[string]string
}

func (h *memHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *memHandler) Handle(_ context.Context, rec slog.Record) error {
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

func (h *memHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *memHandler) WithGroup(string) slog.Handler      { return h }

func (h *memHandler) records() []map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]map[string]string(nil), h.recs...)
}

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"abc-123", true},
		{"00f7c2d1", true},
		{"", false},
		{"has space", false},
		{"new\nline", false},
		{"tab\there", false},
		{`quo"te`, false},
		{strings.Repeat("x", MaxRequestIDLen), true},
		{strings.Repeat("x", MaxRequestIDLen+1), false},
	}
	for _, c := range cases {
		got, ok := SanitizeRequestID(c.in)
		if ok != c.ok {
			t.Errorf("SanitizeRequestID(%q) ok = %t, want %t", c.in, ok, c.ok)
		}
		if ok && got != c.in {
			t.Errorf("SanitizeRequestID(%q) mutated to %q", c.in, got)
		}
	}
	if id := NewRequestID(); len(id) != 32 {
		t.Errorf("NewRequestID() = %q, want 32 hex chars", id)
	}
	if NewRequestID() == NewRequestID() {
		t.Error("NewRequestID() repeated itself")
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if RequestIDFrom(ctx) != "" {
		t.Error("empty context carries a request ID")
	}
	ctx = WithRequestID(ctx, "rid-1")
	if got := RequestIDFrom(ctx); got != "rid-1" {
		t.Errorf("RequestIDFrom = %q", got)
	}
	// Log on a bare context is a usable no-op logger, not nil.
	if Log(context.Background()) == nil {
		t.Fatal("Log(bare ctx) = nil")
	}
	h := &memHandler{}
	ctx = WithLogger(ctx, WrapLogger(h))
	Log(ctx).InfoContext(ctx, "hello", "k", "v")
	recs := h.records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0]["msg"] != "hello" || recs[0]["k"] != "v" {
		t.Errorf("record = %v", recs[0])
	}
	if recs[0]["request_id"] != "rid-1" {
		t.Errorf("request_id = %q, want rid-1 (ctxHandler must stamp it)", recs[0]["request_id"])
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 55.55; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	var b strings.Builder
	h.WriteProm(&b, "t_seconds", "help")
	text := b.String()
	// Cumulative buckets: 1, 2, 3, and +Inf == count.
	for _, want := range []string{
		`t_seconds_bucket{le="0.1"} 1`,
		`t_seconds_bucket{le="1"} 2`,
		`t_seconds_bucket{le="10"} 3`,
		`t_seconds_bucket{le="+Inf"} 4`,
		`t_seconds_count 4`,
		"# TYPE t_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramVecExposition(t *testing.T) {
	v := NewHistogramVec("v_seconds", "help", []string{"stage", "tier"}, []float64{1})
	// Zero children: the family is omitted entirely (no HELP/TYPE with no
	// samples, which expfmt would reject).
	var b strings.Builder
	v.WriteProm(&b)
	if b.String() != "" {
		t.Errorf("empty vec exposed:\n%s", b.String())
	}
	v.Observe(0.5, "queue_wait", "event")
	v.Observe(2, "compute", "event")
	v.Observe(3, "compute", "event")
	if got := v.With("compute", "event").Count(); got != 2 {
		t.Errorf("compute count = %d, want 2", got)
	}
	b.Reset()
	v.WriteProm(&b)
	text := b.String()
	for _, want := range []string{
		"# TYPE v_seconds histogram",
		`v_seconds_bucket{stage="compute",tier="event",le="+Inf"} 2`,
		`v_seconds_count{stage="queue_wait",tier="event"} 1`,
		`v_seconds_sum{stage="compute",tier="event"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Deterministic output: two renders are byte-identical.
	var b2 strings.Builder
	v.WriteProm(&b2)
	if b.String() != b2.String() {
		t.Error("exposition not deterministic")
	}
}

// TestHistogramVecChildren pins that Children hands back label values
// exactly as With received them, including characters the exposition
// must escape.
func TestHistogramVecChildren(t *testing.T) {
	v := NewHistogramVec("c_seconds", "help", []string{"endpoint", "outcome"}, []float64{1})
	odd := `http://a"b\c:1`
	v.Observe(0.5, odd, "success")
	v.Observe(1.5, odd, "success")
	v.Observe(2, "http://plain:2", `err"or`)
	got := v.Children()
	want := []HistogramChild{
		{Labels: []string{odd, "success"}, Count: 2, Sum: 2},
		{Labels: []string{"http://plain:2", `err"or`}, Count: 1, Sum: 2},
	}
	if len(got) != len(want) {
		t.Fatalf("children = %+v, want %+v", got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Labels, w.Labels) || g.Count != w.Count || g.Sum != w.Sum {
			t.Errorf("child %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestHistogramVecObserveNoAllocs pins the observation path: once a
// child exists, finding it again and observing allocates nothing, and a
// missing trailing value names the same child as an explicit empty one.
func TestHistogramVecObserveNoAllocs(t *testing.T) {
	v := NewHistogramVec("o_seconds", "help", []string{"route", "code"}, nil)
	v.Observe(0.1, "/run", "200")
	if allocs := testing.AllocsPerRun(100, func() { v.Observe(0.1, "/run", "200") }); allocs != 0 {
		t.Errorf("observing an existing child allocates %.1f objects, want 0", allocs)
	}
	if v.With("/run") != v.With("/run", "") {
		t.Error("With(\"/run\") and With(\"/run\", \"\") name different children")
	}
	if n := len(v.Children()); n != 2 {
		t.Errorf("%d children, want 2", n)
	}
}

func TestTimelineStagesAndStatusz(t *testing.T) {
	obs := NewObserver(nil)
	tl := obs.StartTimeline("job-1", "rid-9")
	tl.Mark(StageQueue)
	time.Sleep(30 * time.Millisecond)
	st := tl.Status()
	if st.Stage != StageQueue || st.Name != "job-1" || st.RequestID != "rid-9" {
		t.Errorf("status = %+v", st)
	}
	if len(obs.InFlight()) != 1 {
		t.Errorf("in-flight = %d, want 1", len(obs.InFlight()))
	}
	if obs.OldestQueuedSeconds() < 0.02 {
		t.Errorf("oldest queued = %g, want >= 0.02", obs.OldestQueuedSeconds())
	}
	tl.SetWorker(0)
	tl.Mark(StageCompute)
	time.Sleep(10 * time.Millisecond)
	tl.SetTier("analytic")
	tl.Finish()
	tl.Mark(StageSpill) // after Finish: ignored
	if n := len(obs.InFlight()); n != 0 {
		t.Errorf("in-flight after finish = %d, want 0", n)
	}
	slow := obs.Slowest(5)
	if len(slow) != 1 {
		t.Fatalf("slowest = %d entries, want 1", len(slow))
	}
	js := slow[0]
	if js.Tier != "analytic" || js.Worker != 0 || js.RequestID != "rid-9" {
		t.Errorf("summary = %+v", js)
	}
	if js.Stages[StageQueue] < 0.02 {
		t.Errorf("queue stage = %g, want >= 0.02", js.Stages[StageQueue])
	}
	if js.Stages[StageCompute] < 0.005 {
		t.Errorf("compute stage = %g, want >= 0.005", js.Stages[StageCompute])
	}
	if c := obs.Stage.With(StageQueue, "analytic").Count(); c != 1 {
		t.Errorf("queue histogram count = %d, want 1", c)
	}
	// The tracer recorded spans for the job on worker 0's track.
	if obs.Tracer.Len() == 0 {
		t.Error("tracer empty after a finished timeline")
	}
	var buf strings.Builder
	if err := obs.Tracer.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

func TestNilSafety(t *testing.T) {
	var obs *Observer
	tl := obs.StartTimeline("x", "y")
	if tl != nil {
		t.Fatal("nil observer returned a timeline")
	}
	// Every method on a nil timeline is a no-op, not a panic.
	tl.Mark(StageCompute)
	tl.SetWorker(3)
	tl.SetTier("event")
	tl.Finish()
	if tl.RequestID() != "" {
		t.Error("nil timeline has a request ID")
	}
	if obs.UptimeSeconds() != 0 || obs.InFlight() != nil || obs.OldestQueuedSeconds() != 0 {
		t.Error("nil observer not inert")
	}
}

func TestMiddleware(t *testing.T) {
	h := &memHandler{}
	obs := NewObserver(WrapLogger(h))
	var gotCtxID string
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotCtxID = RequestIDFrom(r.Context())
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	})
	ts := httptest.NewServer(Middleware(obs, func(*http.Request) string { return "/teapot" }, next))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/teapot", nil)
	req.Header.Set("X-Request-ID", "client-id-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id-1" {
		t.Errorf("echoed id = %q, want client-id-1", got)
	}
	if gotCtxID != "client-id-1" {
		t.Errorf("context id = %q, want client-id-1", gotCtxID)
	}
	if c := obs.HTTP.With("/teapot", "418").Count(); c != 1 {
		t.Errorf("http histogram count = %d, want 1", c)
	}
	recs := h.records()
	if len(recs) != 1 {
		t.Fatalf("got %d log records, want 1", len(recs))
	}
	rec := recs[0]
	if rec["msg"] != "http request" || rec["status"] != "418" ||
		rec["route"] != "/teapot" || rec["method"] != "GET" ||
		rec["bytes"] != "15" || rec["request_id"] != "client-id-1" {
		t.Errorf("access log record = %v", rec)
	}

	// A hostile or missing header gets a fresh generated ID.
	req2, _ := http.NewRequest("GET", ts.URL+"/teapot", nil)
	req2.Header.Set("X-Request-ID", "bad id with spaces")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	minted := resp2.Header.Get("X-Request-ID")
	if minted == "" || minted == "bad id with spaces" || len(minted) != 32 {
		t.Errorf("minted id = %q, want fresh 32-hex", minted)
	}
}
