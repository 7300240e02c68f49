package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"testing"

	"ladm/internal/core"
	"ladm/internal/stats"
)

// viewResponse is one single-job view as a client received it, with the
// registry record it was rendered from.
type viewResponse struct {
	name  string
	code  int
	ctype string
	body  []byte
	srv   *Server
	rec   *jobRecord
	// stable marks a record whose view cannot change before the test
	// re-renders it; the async 202 races its own job.
	stable bool
}

var wallMS = regexp.MustCompile(`"wall_ms": [-+.0-9eE]+`)

// maskWall blanks wall_ms, which a running record recomputes from the
// clock on every render.
func maskWall(b []byte) []byte { return wallMS.ReplaceAll(b, []byte(`"wall_ms": 0`)) }

// singleViewResponses drives every source of a single-job response —
// sync /run for a computed event cell, a memory hit, a store hit, an
// analytic cell, an auto-escalated cell and a telemetry job; a failed
// (500) and a canceled (499) job; an async 202; and GET /jobs/{id} for
// done, running and failed records — and returns each response with its
// record. The running job stays gated until the test ends.
func singleViewResponses(t *testing.T) []viewResponse {
	t.Helper()
	gate := make(chan struct{})
	pool := NewPool(PoolConfig{Workers: 2, Simulate: func(ctx context.Context, j core.Job) (*stats.Run, error) {
		switch j.Workload.Name {
		case "hotspot3d":
			<-gate
			return nil, context.Canceled
		case "spmv-jds":
			return nil, errors.New("injected failure")
		case "conv":
			return nil, context.Canceled
		}
		return core.SimulateJobContext(ctx, j)
	}})
	t.Cleanup(pool.Close)
	ds := testDiskStore(t, t.TempDir())
	t.Cleanup(func() { ds.Close() })
	srv := NewServer(pool)
	srv.SetStore(ds)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	// A second server on the same store answers its first request for a
	// stored cell from disk.
	warm := NewServer(pool)
	warm.SetStore(ds)
	wts := httptest.NewServer(warm.Handler())
	t.Cleanup(wts.Close)
	// Cleanups run last-first: release the gate and let the gated job
	// finish before the servers, store and pool go away.
	var running string
	t.Cleanup(func() {
		close(gate)
		if running != "" {
			waitFinished(t, srv, running)
		}
	})

	var out []viewResponse
	add := func(name string, srv *Server, resp *http.Response, body []byte, stable bool) JobView {
		t.Helper()
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: %v: %s", name, err, body)
		}
		srv.mu.Lock()
		rec := srv.jobs[v.ID]
		srv.mu.Unlock()
		if rec == nil {
			t.Fatalf("%s: job %q not in the registry", name, v.ID)
		}
		out = append(out, viewResponse{name: name, code: resp.StatusCode,
			ctype: resp.Header.Get("Content-Type"), body: body, srv: srv, rec: rec, stable: stable})
		return v
	}
	run := func(name string, srv *Server, base string, req any, want int) JobView {
		t.Helper()
		resp, body := postJSON(t, base+"/run", req)
		if resp.StatusCode != want {
			t.Fatalf("%s: status = %d, want %d: %s", name, resp.StatusCode, want, body)
		}
		return add(name, srv, resp, body, true)
	}
	get := func(name, id string) {
		t.Helper()
		resp, body := getBody(t, ts.URL+"/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d: %s", name, resp.StatusCode, body)
		}
		add(name, srv, resp, body, true)
	}

	cell := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 64}
	computed := run("run/computed", srv, ts.URL, cell, http.StatusOK)
	if hit := run("run/memory-hit", srv, ts.URL, cell, http.StatusOK); !hit.Cached {
		t.Fatalf("second run not cached: %+v", hit)
	}
	waitFor(t, func() bool { _, ok := ds.GetRun(mustKey(t, computed.Key)); return ok })
	if hit := run("run/store-hit", warm, wts.URL, cell, http.StatusOK); !hit.Cached {
		t.Fatalf("store run not cached: %+v", hit)
	}
	analytic := cell
	analytic.Workload, analytic.Fidelity = "sq-gemm", FidelityAnalytic
	if v := run("run/analytic", srv, ts.URL, analytic, http.StatusOK); v.Run.Tier != "analytic" {
		t.Fatalf("analytic cell served by tier %q", v.Run.Tier)
	}
	auto := cell
	auto.Workload, auto.Fidelity = "bfs-relax", FidelityAuto
	if v := run("run/auto-escalated", srv, ts.URL, auto, http.StatusOK); v.Run.Tier != "event" {
		t.Fatalf("auto cell served by tier %q", v.Run.Tier)
	}
	tel := cell
	tel.Telemetry = true
	if v := run("run/telemetry", srv, ts.URL, tel, http.StatusOK); v.Run.Telemetry == nil {
		t.Fatal("telemetry job carries no telemetry summary")
	}
	failing := cell
	failing.Workload = "spmv-jds"
	failed := run("run/failed", srv, ts.URL, failing, http.StatusInternalServerError)
	canceled := cell
	canceled.Workload = "conv"
	run("run/canceled", srv, ts.URL, canceled, 499)

	resp, body := postJSON(t, ts.URL+"/run", runRequest{Request: cell, Async: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async: status = %d: %s", resp.StatusCode, body)
	}
	// The 202 raced its job; let it land so later renders of the record
	// agree with each other.
	waitFinished(t, srv, add("run/async", srv, resp, body, false).ID)

	gated := cell
	gated.Workload = "hotspot3d"
	running = runAsync(t, ts, gated)
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.jobs[running].status == StatusRunning
	})
	get("get/done", computed.ID)
	get("get/running", running)
	get("get/failed", failed.ID)
	return out
}

// TestSingleViewResponsesMatchWriteJSON checks every single-job
// response against writeJSON, the reference encoder: the served status,
// content type and body bytes equal writeJSON's rendering of the same
// record (wall_ms masked, since a running record's view reads the
// clock), and the fleet dispatcher's decode of a body carrying a record
// yields that record exactly.
func TestSingleViewResponsesMatchWriteJSON(t *testing.T) {
	for _, r := range singleViewResponses(t) {
		var v JobView
		if err := json.Unmarshal(r.body, &v); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want := httptest.NewRecorder()
		if r.stable {
			writeJSON(want, r.code, r.srv.view(r.rec))
		} else {
			// The async job may have moved on since its 202: the body
			// must still be exactly writeJSON of what it says.
			writeJSON(want, r.code, v)
		}
		if r.code != want.Code || r.ctype != want.Header().Get("Content-Type") {
			t.Errorf("%s: served %d %q, writeJSON %d %q", r.name, r.code, r.ctype,
				want.Code, want.Header().Get("Content-Type"))
		}
		if got, ref := maskWall(r.body), maskWall(want.Body.Bytes()); !bytes.Equal(got, ref) {
			t.Errorf("%s: body differs from writeJSON\n got: %s\nwant: %s", r.name, got, ref)
		}
		if r.code == http.StatusOK && v.Status == StatusDone {
			if v.Run == nil || v.Run.Run == nil {
				t.Fatalf("%s: done view carries no record", r.name)
			}
			if !reflect.DeepEqual(v.Run.Run, r.rec.entry.record()) {
				t.Errorf("%s: decoded record differs from the cached one", r.name)
			}
		}
	}
}

// TestWriteViewMatchesWriteJSON holds the single-job writer to
// writeJSON on the view of every source: for the same record, the
// status, every header and the body bytes are identical (wall_ms masked
// only while a job runs). writeSpliced is checked on every source that
// has a record, not only the cache-served ones writeView splices.
func TestWriteViewMatchesWriteJSON(t *testing.T) {
	spliced := 0
	for _, r := range singleViewResponses(t) {
		v := r.srv.view(r.rec)
		same := func(what string, got, want *httptest.ResponseRecorder) {
			t.Helper()
			gb, wb := got.Body.Bytes(), want.Body.Bytes()
			if !finishedStatus(v.Status) {
				gb, wb = maskWall(gb), maskWall(wb)
			}
			if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) {
				t.Errorf("%s: %s %d %v, writeJSON %d %v", r.name, what,
					got.Code, got.Header(), want.Code, want.Header())
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: %s body differs\n got: %s\nwant: %s", r.name, what, gb, wb)
			}
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		r.srv.writeView(got, r.code, r.rec)
		writeJSON(want, r.code, v)
		same("writeView", got, want)

		if r.rec.entry.record() == nil {
			continue
		}
		env := v
		env.Run = nil
		got, want = httptest.NewRecorder(), httptest.NewRecorder()
		writeSpliced(got, r.code, env, r.rec.entry.payloadJSON())
		writeJSON(want, r.code, v)
		same("writeSpliced", got, want)
		spliced++
	}
	if spliced < 8 {
		t.Errorf("writeSpliced checked on %d sources with a record, want at least 8", spliced)
	}
}
