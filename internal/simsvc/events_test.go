package simsvc

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/simtel"
)

// mustKey parses a JobView's hex content key.
func mustKey(t *testing.T, s string) JobKey {
	t.Helper()
	key, ok := ParseJobKey(s)
	if !ok {
		t.Fatalf("bad job key %q", s)
	}
	return key
}

// corruptFile flips one byte near the end of the file (in the payload,
// past the envelope header).
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readSSE consumes one SSE stream to EOF and returns the decoded events.
func readSSE(t *testing.T, url string) []JobEvent {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("events: status = %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type = %q", ct)
	}
	var events []JobEvent
	sc := bufio.NewScanner(r.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

// TestJobEventsReplayLifecycle: subscribing after a job finished still
// sees the whole queued -> running -> done sequence from the replay
// history, and the stream terminates on its own (terminal hub close).
func TestJobEventsReplayLifecycle(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	_, body := postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8})
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}

	events := readSSE(t, ts.URL+"/jobs/"+v.ID+"/events")
	var got []string
	for i, ev := range events {
		if ev.Type != "status" || ev.Job != v.ID {
			t.Errorf("event %d: %+v", i, ev)
		}
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, i+1)
		}
		got = append(got, ev.Status)
	}
	if want := []string{StatusQueued, StatusRunning, StatusDone}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle = %v, want %v", got, want)
	}

	r, err := http.Get(ts.URL + "/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status = %d, want 404", r.StatusCode)
	}
}

// TestEventHubSubscriberAccounting drives a hub directly: the gauge
// follows subscribe/unsubscribe, publishes past a full buffer drop
// (counted) instead of blocking, and a closed hub hands late subscribers
// history-then-EOF.
func TestEventHubSubscriberAccounting(t *testing.T) {
	m := NewMetrics()
	hub := newEventHub(m)

	ch := hub.subscribe()
	if got := m.eventsSubs.Load(); got != 1 {
		t.Fatalf("subscribers = %d, want 1", got)
	}

	// The subscriber never drains: everything beyond its buffer drops.
	total := cap(ch) + 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			hub.publish(JobEvent{Type: "status", Status: StatusRunning})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if got := m.eventsDropped.Load(); got != int64(100) {
		t.Errorf("dropped = %d, want 100", got)
	}

	hub.unsubscribe(ch)
	if got := m.eventsSubs.Load(); got != 0 {
		t.Errorf("subscribers after unsubscribe = %d, want 0", got)
	}

	hub.close()
	late := hub.subscribe()
	n := 0
	for range late {
		n++
	}
	if n != total {
		t.Errorf("late subscriber replayed %d events, want %d", n, total)
	}
	// Unsubscribing a closed-hub channel must not underflow the gauge.
	hub.unsubscribe(late)
	if got := m.eventsSubs.Load(); got != 0 {
		t.Errorf("subscribers after closed-hub unsubscribe = %d, want 0", got)
	}
}

// TestTelemetrySpillRoundTrip is the spill acceptance test: a telemetry
// job's series and trace, spilled to the durable store, are served
// byte-identically by a fresh server on the same directory — addressed
// by the job's content key after the registry record is gone — and a
// corrupted envelope quarantines into a structured 410/404, never a
// crash.
func TestTelemetrySpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	start := func() (*httptest.Server, *Server, *DiskStore, *Pool) {
		pool := NewPool(PoolConfig{Workers: 2})
		srv := NewServer(pool)
		ds := testDiskStore(t, dir)
		srv.SetStore(ds)
		return httptest.NewServer(srv.Handler()), srv, ds, pool
	}

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true}
	ts, _, ds, pool := start()
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	r, liveTrace := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=trace")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("live trace: %d", r.StatusCode)
	}
	_, liveCSV := getBody(t, ts.URL+"/jobs/"+v.ID+"/telemetry?view=csv")
	if !strings.Contains(string(liveTrace), `"ph":"C"`) {
		t.Error("live trace has no counter events")
	}

	// The spill rides the write-behind queue; wait for it to land, then
	// check the spill counter made it to /metrics.
	waitFor(t, func() bool { _, ok, _ := ds.GetTelemetry(mustKey(t, v.Key)); return ok })
	r, data := getBody(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK || !strings.Contains(string(data), "simsvc_telemetry_spilled_total 1") {
		t.Errorf("metrics missing spill counter (status %d)", r.StatusCode)
	}

	ts.Close()
	pool.Close()
	ds.Close()

	// Fresh process, same directory. The registry is empty — the content
	// key from JobView.Key is the handle that survives.
	ts2, _, ds2, pool2 := start()
	defer func() { ts2.Close(); pool2.Close(); ds2.Close() }()
	r, data = getBody(t, ts2.URL+"/jobs/"+v.Key+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stored telemetry: %d %s", r.StatusCode, data)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Source != "store" || tv.Status != "evicted" || tv.Summary == nil || tv.Series == nil || tv.TraceEvents == 0 {
		t.Errorf("stored view = {source:%q status:%q summary:%v series:%v events:%d}",
			tv.Source, tv.Status, tv.Summary != nil, tv.Series != nil, tv.TraceEvents)
	}
	_, storedTrace := getBody(t, ts2.URL+"/jobs/"+v.Key+"/telemetry?view=trace")
	if string(storedTrace) != string(liveTrace) {
		t.Error("stored trace differs from the live trace")
	}
	_, storedCSV := getBody(t, ts2.URL+"/jobs/"+v.Key+"/telemetry?view=csv")
	if string(storedCSV) != string(liveCSV) {
		t.Error("stored CSV differs from the live CSV")
	}

	// Corrupt the spilled envelope on disk: the first read quarantines it
	// (410 Gone — it existed a moment ago), the second is a plain miss.
	corruptFile(t, findRecord(t, TelemetryDir(dir)))
	r, data = getBody(t, ts2.URL+"/jobs/"+v.Key+"/telemetry?view=trace")
	if r.StatusCode != http.StatusGone {
		t.Fatalf("corrupted telemetry: status = %d, want 410: %s", r.StatusCode, data)
	}
	if !strings.Contains(string(data), "quarantined") {
		t.Errorf("410 body should say quarantined: %s", data)
	}
	r, _ = getBody(t, ts2.URL+"/jobs/"+v.Key+"/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("after quarantine: status = %d, want 404", r.StatusCode)
	}
	// An unknown (never-spilled) key is a plain 404 too.
	bogus := strings.Repeat("0", 64)
	r, _ = getBody(t, ts2.URL+"/jobs/"+bogus+"/telemetry")
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status = %d, want 404", r.StatusCode)
	}
}

// TestTelemetryServedFromStoreForCachedJob: a second identical telemetry
// request is a cache hit with no collector of its own, but with a store
// attached its full series and trace come back from the spill.
func TestTelemetryServedFromStoreForCachedJob(t *testing.T) {
	dir := t.TempDir()
	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()
	srv := NewServer(pool)
	ds := testDiskStore(t, dir)
	defer ds.Close()
	srv.SetStore(ds)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true}
	_, body := postJSON(t, ts.URL+"/run", req)
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok, _ := ds.GetTelemetry(mustKey(t, first.Key)); return ok })

	_, body = postJSON(t, ts.URL+"/run", req)
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("second run not cached: %+v", second)
	}
	r, data := getBody(t, ts.URL+"/jobs/"+second.ID+"/telemetry")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("telemetry: %d %s", r.StatusCode, data)
	}
	var tv TelemetryView
	if err := json.Unmarshal(data, &tv); err != nil {
		t.Fatal(err)
	}
	if tv.Source != "store" || !tv.Cached || tv.Series == nil || tv.TraceEvents == 0 {
		t.Errorf("cached job's telemetry = {source:%q cached:%v series:%v events:%d}",
			tv.Source, tv.Cached, tv.Series != nil, tv.TraceEvents)
	}
	_, trace := getBody(t, ts.URL+"/jobs/"+second.ID+"/telemetry?view=trace")
	var decoded struct {
		TraceEvents []simtel.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &decoded); err != nil {
		t.Fatalf("stored trace does not parse: %v", err)
	}
	if len(decoded.TraceEvents) != tv.TraceEvents {
		t.Errorf("trace events = %d, view says %d", len(decoded.TraceEvents), tv.TraceEvents)
	}
}
