package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"ladm/internal/core"
	"ladm/internal/stats"
)

// telemetryViews are the ?view= values every source is read under.
var telemetryViews = []string{"json", "csv", "trace", "bogus"}

// pinnedTelemetry is the exact response of GET /jobs/{id}/telemetry for
// each source and view: status, content type, and the body — verbatim
// when short, by digest when it carries a full series or trace. The live
// collector and both store paths must serve the same series and trace
// bytes, so their csv and trace digests coincide.
var pinnedTelemetry = map[string]string{
	"live/json":           `200 application/json sha256=61fb7dc1e29e6736e57436b23e772793 len=9259`,
	"live/csv":            `200 text/csv sha256=ce2210ea3bd215909e8072f6bacd5636 len=5016`,
	"live/trace":          `200 application/json sha256=fc9cc89d35a3e032a94dc8a1125c3ff7 len=49822`,
	"live/bogus":          `400 application/json "{\n  \"error\": \"unknown view \\\"bogus\\\" (valid: json, csv, trace)\"\n}\n"`,
	"store-by-id/json":    `200 application/json sha256=3277a72ce3a1b221d0c652f9b2c95ca9 len=9259`,
	"store-by-id/csv":     `200 text/csv sha256=ce2210ea3bd215909e8072f6bacd5636 len=5016`,
	"store-by-id/trace":   `200 application/json sha256=fc9cc89d35a3e032a94dc8a1125c3ff7 len=49822`,
	"store-by-id/bogus":   `400 application/json "{\n  \"error\": \"unknown view \\\"bogus\\\" (valid: json, csv, trace)\"\n}\n"`,
	"store-by-key/json":   `200 application/json sha256=cac4aa10fbd320cd96f86e25dbec0183 len=9317`,
	"store-by-key/csv":    `200 text/csv sha256=ce2210ea3bd215909e8072f6bacd5636 len=5016`,
	"store-by-key/trace":  `200 application/json sha256=fc9cc89d35a3e032a94dc8a1125c3ff7 len=49822`,
	"store-by-key/bogus":  `400 application/json "{\n  \"error\": \"unknown view \\\"bogus\\\" (valid: json, csv, trace)\"\n}\n"`,
	"summary-only/json":   `200 application/json sha256=6f6d0cc35316b215c5b75984594399d7 len=438`,
	"summary-only/csv":    `404 application/json "{\n  \"error\": \"job job-000002 has no retained series (cached result)\"\n}\n"`,
	"summary-only/trace":  `404 application/json "{\n  \"error\": \"job job-000002 has no retained series (cached result)\"\n}\n"`,
	"summary-only/bogus":  `400 application/json "{\n  \"error\": \"unknown view \\\"bogus\\\" (valid: json, csv, trace)\"\n}\n"`,
	"quarantined/json":    `410 application/json "{\n  \"error\": \"telemetry for f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 failed validation and was quarantined; re-run the job to regenerate it\"\n}\n"`,
	"quarantined/csv":     `410 application/json "{\n  \"error\": \"telemetry for f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 failed validation and was quarantined; re-run the job to regenerate it\"\n}\n"`,
	"quarantined/trace":   `410 application/json "{\n  \"error\": \"telemetry for f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 failed validation and was quarantined; re-run the job to regenerate it\"\n}\n"`,
	"quarantined/bogus":   `410 application/json "{\n  \"error\": \"telemetry for f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 failed validation and was quarantined; re-run the job to regenerate it\"\n}\n"`,
	"never-spilled/json":  `404 application/json "{\n  \"error\": \"no stored telemetry under 0000000000000000000000000000000000000000000000000000000000000000\"\n}\n"`,
	"never-spilled/csv":   `404 application/json "{\n  \"error\": \"no stored telemetry under 0000000000000000000000000000000000000000000000000000000000000000\"\n}\n"`,
	"never-spilled/trace": `404 application/json "{\n  \"error\": \"no stored telemetry under 0000000000000000000000000000000000000000000000000000000000000000\"\n}\n"`,
	"never-spilled/bogus": `404 application/json "{\n  \"error\": \"no stored telemetry under 0000000000000000000000000000000000000000000000000000000000000000\"\n}\n"`,
	"no-store/json":       `404 application/json "{\n  \"error\": \"job f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 has no retained telemetry (no durable store attached)\"\n}\n"`,
	"no-store/csv":        `404 application/json "{\n  \"error\": \"job f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 has no retained telemetry (no durable store attached)\"\n}\n"`,
	"no-store/trace":      `404 application/json "{\n  \"error\": \"job f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 has no retained telemetry (no durable store attached)\"\n}\n"`,
	"no-store/bogus":      `404 application/json "{\n  \"error\": \"job f5d999d0392c08e6c9b0403dbf425879605126151533396277120058b4bda336 has no retained telemetry (no durable store attached)\"\n}\n"`,
	"non-telemetry/json":  `404 application/json "{\n  \"error\": \"job job-000003 was not run with telemetry (submit with \\\"telemetry\\\": true)\"\n}\n"`,
	"non-telemetry/csv":   `404 application/json "{\n  \"error\": \"job job-000003 was not run with telemetry (submit with \\\"telemetry\\\": true)\"\n}\n"`,
	"non-telemetry/trace": `404 application/json "{\n  \"error\": \"job job-000003 was not run with telemetry (submit with \\\"telemetry\\\": true)\"\n}\n"`,
	"non-telemetry/bogus": `404 application/json "{\n  \"error\": \"job job-000003 was not run with telemetry (submit with \\\"telemetry\\\": true)\"\n}\n"`,
	"unknown-job/json":    `404 application/json "{\n  \"error\": \"unknown job \\\"job-999999\\\"\"\n}\n"`,
	"unknown-job/csv":     `404 application/json "{\n  \"error\": \"unknown job \\\"job-999999\\\"\"\n}\n"`,
	"unknown-job/trace":   `404 application/json "{\n  \"error\": \"unknown job \\\"job-999999\\\"\"\n}\n"`,
	"unknown-job/bogus":   `404 application/json "{\n  \"error\": \"unknown job \\\"job-999999\\\"\"\n}\n"`,
	"running/json":        `409 application/json "{\n  \"error\": \"job job-000001 is running; telemetry is available once it finishes\"\n}\n"`,
	"running/csv":         `409 application/json "{\n  \"error\": \"job job-000001 is running; telemetry is available once it finishes\"\n}\n"`,
	"running/trace":       `409 application/json "{\n  \"error\": \"job job-000001 is running; telemetry is available once it finishes\"\n}\n"`,
	"running/bogus":       `409 application/json "{\n  \"error\": \"job job-000001 is running; telemetry is available once it finishes\"\n}\n"`,
}

// telemetryResponse fetches one telemetry view and renders it in the
// pinned form.
func telemetryResponse(t *testing.T, base, id, view string) string {
	t.Helper()
	r, body := getBody(t, base+"/jobs/"+id+"/telemetry?view="+view)
	head := fmt.Sprintf("%d %s ", r.StatusCode, r.Header.Get("Content-Type"))
	if len(body) <= 200 {
		return head + fmt.Sprintf("%q", body)
	}
	sum := sha256.Sum256(body)
	return head + fmt.Sprintf("sha256=%x len=%d", sum[:16], len(body))
}

// TestTelemetryViewsPinned pins every answer of GET /jobs/{id}/telemetry
// — each view of each source: the live collector, the durable spill
// reached by job id and by content key, a cached job with only the
// shared summary, a quarantined or never-spilled key, a server with no
// store, a job run without telemetry, an unknown id and a job still
// running — so the handler can be restructured without changing a byte.
func TestTelemetryViewsPinned(t *testing.T) {
	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64, Telemetry: true}
	got := map[string]string{}
	read := func(source, base, id string) {
		for _, view := range telemetryViews {
			got[source+"/"+view] = telemetryResponse(t, base, id, view)
		}
	}
	decode := func(resp *http.Response, body []byte) JobView {
		t.Helper()
		if resp.StatusCode/100 != 2 {
			t.Fatalf("run: status = %d: %s", resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	pool := NewPool(PoolConfig{Workers: 2})
	defer pool.Close()

	// A store-backed server: the executing job reads its live collector,
	// an identical second job (a cache hit) reads the spill by job id,
	// and the content key reads it with no registry record at all.
	ds := testDiskStore(t, t.TempDir())
	defer ds.Close()
	stored := NewServer(pool)
	stored.SetStore(ds)
	ts := httptest.NewServer(stored.Handler())
	defer ts.Close()
	first := decode(postJSON(t, ts.URL+"/run", req))
	key := mustKey(t, first.Key)
	waitFor(t, func() bool { _, ok, _ := ds.GetTelemetry(key); return ok })
	read("live", ts.URL, first.ID)
	second := decode(postJSON(t, ts.URL+"/run", req))
	if !second.Cached {
		t.Fatalf("second run not cached: %+v", second)
	}
	read("store-by-id", ts.URL, second.ID)
	read("store-by-key", ts.URL, first.Key)
	read("never-spilled", ts.URL, strings.Repeat("0", 64))
	trec, _, _ := ds.GetTelemetry(key)

	// A quarantined spill: each view reads a freshly corrupted envelope,
	// so every one of them is the first read after the damage.
	for _, view := range telemetryViews {
		dir := t.TempDir()
		qs := testDiskStore(t, dir)
		srv := NewServer(pool)
		srv.SetStore(qs)
		qts := httptest.NewServer(srv.Handler())
		qs.PutTelemetry(key, trec)
		waitFor(t, func() bool { _, ok, _ := qs.GetTelemetry(key); return ok })
		corruptFile(t, findRecord(t, TelemetryDir(dir)))
		got["quarantined/"+view] = telemetryResponse(t, qts.URL, first.Key, view)
		qts.Close()
		qs.Close()
	}

	// A store-less server: a cache hit keeps only the shared summary, a
	// content key has nothing to read, and a job run without telemetry
	// or an unknown id has no telemetry to show.
	bare := httptest.NewServer(NewServer(pool).Handler())
	defer bare.Close()
	postJSON(t, bare.URL+"/run", req)
	hit := decode(postJSON(t, bare.URL+"/run", req))
	if !hit.Cached {
		t.Fatalf("second run not cached: %+v", hit)
	}
	read("summary-only", bare.URL, hit.ID)
	read("no-store", bare.URL, first.Key)
	plain := decode(postJSON(t, bare.URL+"/run", Request{Workload: "vecadd", Scale: 64}))
	read("non-telemetry", bare.URL, plain.ID)
	read("unknown-job", bare.URL, "job-999999")

	// A job still running: its simulation holds until every view is read.
	entered, release := make(chan struct{}), make(chan struct{})
	slow := NewPool(PoolConfig{Workers: 1, Simulate: func(context.Context, core.Job) (*stats.Run, error) {
		close(entered)
		<-release
		return &stats.Run{}, nil
	}})
	defer slow.Close()
	rts := httptest.NewServer(NewServer(slow).Handler())
	defer rts.Close()
	async := decode(postJSON(t, rts.URL+"/run", runRequest{Request: req, Async: true}))
	<-entered
	read("running", rts.URL, async.ID)
	close(release)

	var mismatched []string
	for k, want := range pinnedTelemetry {
		if got[k] != want {
			mismatched = append(mismatched, fmt.Sprintf("\t%q: `%s`,", k, got[k]))
		}
	}
	if len(got) != len(pinnedTelemetry) {
		t.Errorf("read %d responses, pinned %d", len(got), len(pinnedTelemetry))
	}
	if len(mismatched) > 0 {
		sort.Strings(mismatched)
		t.Errorf("telemetry responses differ from the pinned set; observed:\n%s", strings.Join(mismatched, "\n"))
	}
}
