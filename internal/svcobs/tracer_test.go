package svcobs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// goldenTracer replays a fixed mix of every event source the tracer
// accepts — job timelines on worker and edge tracks, fleet spans and
// instants on named tracks, a stitched worker timeline — into a ring
// small enough to trim twice, on a clock pinned to a fixed t0.
func goldenTracer() *Tracer {
	tr := newTracer(24)
	tr.start = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int) time.Time { return tr.start.Add(time.Duration(us) * time.Microsecond) }
	job := func(base int, stages ...string) []StageSpan {
		spans := make([]StageSpan, len(stages))
		for i, st := range stages {
			// Durations grow 10µs per stage; the third stage is empty
			// and must be dropped.
			d := 10 * (i + 1)
			if i == 2 {
				d = 0
			}
			spans[i] = StageSpan{Stage: st, Start: at(base), End: at(base + d)}
			base += d
		}
		return spans
	}
	tr.addJob("job-000001", "rid-1", "event", 0,
		job(100, StageReceived, StageCache, StageStore, StageQueue, StageCompute, StageRespond))
	tr.addJob("job-000002", "", "analytic", -1,
		job(120, StageReceived, StageCache, StageTier, StageRespond))
	tr.AddSpan("http://w1", "vecadd/ladm attempt 1", "fleet", at(90), 400*time.Microsecond,
		map[string]any{"attempt": 1, "outcome": "ok"})
	tr.AddSpan("http://w1", "dropped", "fleet", at(95), 0, nil)
	tr.AddInstant("http://w1", "breaker-rejected", "fleet", at(300), nil)
	tr.AddTimeline("http://w2", &TimelineSummary{
		Name: "job-000007", RequestID: "rid-7", TraceID: "0af7651916cd43dd8448eb211c80319c",
		SpanID: "b7ad6b7169203331", ParentSpanID: "00f067aa0ba902b7", Tier: "event", Worker: 1,
		StartUS: at(200).UnixMicro(), EndUS: at(260).UnixMicro(),
		Stages: []StageSummary{
			{Stage: StageQueue, StartUS: at(200).UnixMicro(), DurUS: 20},
			{Stage: StageCompute, StartUS: at(220).UnixMicro(), DurUS: 40},
		},
	})
	// Enough further jobs to overflow the ring twice; the second job's
	// stages start before the first's, so the sort has work to do.
	tr.addJob("job-000003", "rid-3", "event", 1,
		job(500, StageReceived, StageCache, StageStore, StageQueue, StageCompute, StageRespond))
	tr.addJob("job-000004", "rid-4", "event", 0,
		job(450, StageReceived, StageCache, StageStore, StageQueue, StageCompute, StageRespond))
	tr.addJob("job-000005", "rid-5", "auto", -1,
		job(700, StageReceived, StageCache, StageRespond))
	tr.AddSpan("client", "pagerank/ladm", "dispatch", at(690), 80*time.Microsecond, nil)
	tr.addJob("job-000006", "", "analytic", -1, job(650, StageReceived, StageTier))
	return tr
}

// TestTracerGolden pins the service trace's bytes: GET /debug/servicetrace
// must not change shape however the ring stores its spans.
func TestTracerGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "servicetrace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("service trace drifted from %s:\n got: %s\nwant: %s", path, buf.Bytes(), want)
	}
}

// TestAddJobAllocs: recording a job's stage spans allocates nothing per
// span — the ring stores raw fields, and names and args maps are built
// only when the trace is read.
func TestAddJobAllocs(t *testing.T) {
	tr := newTracer(1 << 20)
	t0 := time.Now()
	spans := make([]StageSpan, 6)
	for i, st := range []string{StageReceived, StageCache, StageStore, StageQueue, StageCompute, StageRespond} {
		spans[i] = StageSpan{Stage: st, Start: t0.Add(time.Duration(i) * time.Millisecond),
			End: t0.Add(time.Duration(i+1) * time.Millisecond)}
	}
	// 1000 runs of 6 spans: ring growth amortizes to well under one
	// allocation per run, which AllocsPerRun's integer average drops.
	allocs := testing.AllocsPerRun(1000, func() {
		tr.addJob("job-000001", "rid-1", "event", 0, spans)
	})
	if allocs != 0 {
		t.Errorf("addJob allocates %.0f times per job, want 0", allocs)
	}
}
