package simsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// nextEvent reads one SSE event off an open stream, checking that its id
// line matches its payload's seq; io.EOF means the stream ended.
func nextEvent(t *testing.T, br *bufio.Reader) (JobEvent, error) {
	t.Helper()
	var ev JobEvent
	id := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if line == "" && id == "" {
				return ev, err
			}
			t.Fatalf("stream ended mid-event: %q, %v", line, err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			if id != fmt.Sprint(ev.Seq) {
				t.Fatalf("event id %q, payload seq %d", id, ev.Seq)
			}
			return ev, nil
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
		case line != "event: status":
			t.Fatalf("unexpected stream line %q", line)
		}
	}
}

// TestJobEventsLiveStream follows a job that is still running: a stream
// opened right after the async 202 receives queued and running while the
// job is blocked, then done once it is released, and ends on its own.
// The subscriber gauge counts open streams, including one whose client
// disconnects mid-stream.
func TestJobEventsLiveStream(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 2, Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()
	ts := httptest.NewServer(NewServer(pool).Handler())
	defer ts.Close()
	subs := &pool.Metrics().eventsSubs

	open := func(ctx context.Context, scale int) (string, *bufio.Reader, func()) {
		resp, body := postJSON(t, ts.URL+"/run", map[string]any{
			"workload": "vecadd", "scale": scale, "async": true})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async run: %d %s", resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+v.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK || r.Header.Get("Content-Type") != "text/event-stream" {
			t.Fatalf("events: %d %q", r.StatusCode, r.Header.Get("Content-Type"))
		}
		return v.ID, bufio.NewReader(r.Body), func() { r.Body.Close() }
	}
	expect := func(br *bufio.Reader, id string, seq int64, status string) {
		t.Helper()
		ev, err := nextEvent(t, br)
		if err != nil {
			t.Fatalf("want seq %d %s: %v", seq, status, err)
		}
		if ev.Seq != seq || ev.Type != "status" || ev.Job != id || ev.Status != status {
			t.Fatalf("event = %+v, want seq %d %s of %s", ev, seq, status, id)
		}
	}

	// A client that disconnects mid-stream gives its gauge slot back.
	ctx, cancel := context.WithCancel(context.Background())
	id, br, closeBody := open(ctx, 9)
	expect(br, id, 1, StatusQueued)
	expect(br, id, 2, StatusRunning)
	if got := subs.Load(); got != 1 {
		t.Errorf("subscribers with one open stream = %d, want 1", got)
	}
	cancel()
	closeBody()
	waitFor(t, func() bool { return subs.Load() == 0 })

	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, br, closeBody = open(ctx, 8)
	defer closeBody()
	expect(br, id, 1, StatusQueued)
	expect(br, id, 2, StatusRunning)
	if got := subs.Load(); got != 1 {
		t.Errorf("subscribers with one open stream = %d, want 1", got)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("simulate calls = %d, want both jobs blocked", n)
	}
	released = true
	close(release)
	ev, err := nextEvent(t, br)
	if err != nil || ev.Seq != 3 || ev.Status != StatusDone || ev.Job != id {
		t.Fatalf("terminal event = %+v, %v; want seq 3 done", ev, err)
	}
	if _, err := nextEvent(t, br); err != io.EOF {
		t.Fatalf("stream after the terminal event: %v, want EOF", err)
	}
	waitFor(t, func() bool { return subs.Load() == 0 })
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
