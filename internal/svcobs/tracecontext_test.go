package svcobs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestParseTraceparentEdges(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"valid", valid, true},
		{"valid zero flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", true},
		{"empty", "", false},
		{"oversized", valid + strings.Repeat("x", 200), false},
		{"three parts", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331", false},
		{"five parts", valid + "-00", false},
		{"future version", "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", false},
		{"uppercase hex", "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01", false},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01", false},
		{"zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", false},
		{"short trace id", "00-0af7651916cd43dd-b7ad6b7169203331-01", false},
		{"non-hex flags", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz", false},
	}
	for _, c := range cases {
		tc, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", c.name, c.in, ok, c.ok)
		}
		if ok != tc.Valid() {
			t.Errorf("%s: ok %v but Valid() %v", c.name, ok, tc.Valid())
		}
	}
}

func TestTraceContextRoundTripAndChild(t *testing.T) {
	root := NewTraceContext()
	if !root.Valid() {
		t.Fatalf("minted root is invalid: %+v", root)
	}
	back, ok := ParseTraceparent(root.Traceparent())
	if !ok || back != root {
		t.Fatalf("round trip: %q -> %+v (ok=%v), want %+v", root.Traceparent(), back, ok, root)
	}
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Fatalf("child left the trace: %s != %s", child.TraceID, root.TraceID)
	}
	if child.SpanID == root.SpanID || !child.Valid() {
		t.Fatalf("child span id not fresh: %+v", child)
	}
}

// TestMiddlewareTraceparent pins the edge contract: a well-formed
// incoming traceparent is adopted, everything else — absent, malformed,
// oversized — falls back to minting a fresh trace, never to a 500.
func TestMiddlewareTraceparent(t *testing.T) {
	obs := NewObserver(nil)
	var got TraceContext
	h := Middleware(obs, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = TraceContextFrom(r.Context())
	}))

	send := func(header string) TraceContext {
		t.Helper()
		req := httptest.NewRequest("GET", "/x", nil)
		if header != "" {
			req.Header.Set(TraceparentHeader, header)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			t.Fatalf("traceparent %q caused status %d", header, rw.Code)
		}
		return got
	}

	if tc := send(""); !tc.Valid() {
		t.Fatalf("no header: want minted trace, got %+v", tc)
	}
	supplied := NewTraceContext()
	if tc := send(supplied.Traceparent()); tc != supplied {
		t.Fatalf("valid header not adopted: got %+v want %+v", tc, supplied)
	}
	for _, bad := range []string{"garbage", "00-zz-zz-01", strings.Repeat("a", 500)} {
		tc := send(bad)
		if !tc.Valid() {
			t.Fatalf("malformed %q: want minted trace, got %+v", bad, tc)
		}
		if tc.TraceID == supplied.TraceID {
			t.Fatalf("malformed header adopted a stale trace")
		}
	}
}

// TestTimelineTraceAdoption: SetTrace re-parents the timeline exactly
// once; the finished summary carries the full span-identity triple, and
// an untraced timeline has none.
func TestTimelineTraceAdoption(t *testing.T) {
	obs := NewObserver(nil)
	tl := obs.StartTimeline("job-000001", "req-42")
	attempt := NewTraceContext()
	tl.SetTrace(attempt)
	tl.SetTrace(NewTraceContext()) // second adoption must be a no-op
	tl.Mark(StageCompute)
	time.Sleep(time.Millisecond)
	tl.Finish()

	ts := tl.Summary()
	if ts == nil {
		t.Fatal("finished timeline has no summary")
	}
	if ts.TraceID != attempt.TraceID || ts.ParentSpanID != attempt.SpanID {
		t.Fatalf("summary parentage %+v, want trace %s parent %s", ts, attempt.TraceID, attempt.SpanID)
	}
	if !isHexID(ts.SpanID, 16) || ts.SpanID == attempt.SpanID {
		t.Fatalf("timeline span id %q not freshly minted", ts.SpanID)
	}
	if len(ts.Stages) == 0 || ts.EndUS <= ts.StartUS {
		t.Fatalf("summary lost its stages: %+v", ts)
	}

	// A timeline that never adopted a trace has nothing to stitch.
	untraced := obs.StartTimeline("job-000002", "req-43")
	untraced.Finish()
	if got := untraced.Summary(); got != nil {
		t.Fatalf("untraced timeline summary = %+v, want nil", got)
	}
}

// TestTracerNamedTracks: spans and instants land on stable named tracks
// with thread-name metadata, and a stitched timeline contributes the
// job span plus its stage children.
func TestTracerNamedTracks(t *testing.T) {
	tr := newTracer(0)
	now := time.Now()
	tr.AddSpan("http://a:1", "attempt", "fleet", now, 5*time.Millisecond, map[string]any{"outcome": "success"})
	tr.AddSpan("http://a:1", "zero-dur", "fleet", now, 0, nil) // dropped
	tr.AddInstant("http://b:2", "breaker-rejected", "fleet", now, nil)
	tr.AddTimeline("http://a:1", &TimelineSummary{
		Name: "job-000001", TraceID: NewTraceID(), SpanID: NewSpanID(),
		StartUS: now.UnixMicro(), EndUS: now.Add(4 * time.Millisecond).UnixMicro(),
		Stages: []StageSummary{{Stage: StageCompute, StartUS: now.UnixMicro(), DurUS: 3000}},
	})
	evs := tr.Events()
	var names, tracks []string
	for _, ev := range evs {
		names = append(names, ev.Name)
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks = append(tracks, ev.Args["name"].(string))
		}
	}
	joinedTracks := strings.Join(tracks, " ")
	if !strings.Contains(joinedTracks, "http://a:1") || !strings.Contains(joinedTracks, "http://b:2") {
		t.Fatalf("named tracks missing from metadata: %v", tracks)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"attempt", "breaker-rejected", "job-000001", "job-000001/compute"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event %q missing from %v", want, names)
		}
	}
	if strings.Contains(joined, "zero-dur") {
		t.Fatal("zero-duration span should have been dropped")
	}
}

// TestTraceNilSafety: the whole distributed plane must be inert on nil
// receivers — unobserved code paths pay nothing and never panic.
func TestTraceNilSafety(t *testing.T) {
	var tl *Timeline
	tl.SetTrace(NewTraceContext())
	if tl.SpanID() != "" || tl.Summary() != nil {
		t.Fatal("nil timeline leaked trace state")
	}
	var tr *Tracer
	tr.AddSpan("t", "s", "c", time.Now(), time.Second, nil)
	tr.AddInstant("t", "i", "c", time.Now(), nil)
	tr.AddTimeline("t", &TimelineSummary{StartUS: 1, EndUS: 2})
	if tr.Len() != 0 {
		t.Fatal("nil tracer recorded events")
	}
}
