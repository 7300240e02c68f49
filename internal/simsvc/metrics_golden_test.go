package simsvc_test

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/core"
	"ladm/internal/fleet"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden exposition files")

const metricsGolden = "testdata/metrics.golden.prom"

// fixedRunner is the fleet's local runner: every job answers with the
// same record, instantly.
type fixedRunner struct{}

func (fixedRunner) Exec(context.Context, core.Job) (*stats.Run, error) {
	return &stats.Run{Workload: "golden", Policy: "ladm", Cycles: 100}, nil
}

// goldenServer builds a server with a durable store and a two-endpoint
// fleet attached, and drives every metric family to fixed values through
// the calls production makes. Nothing depends on the wall clock.
func goldenServer(t *testing.T) *simsvc.Server {
	t.Helper()
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 2})
	t.Cleanup(pool.Close)
	srv := simsvc.NewServer(pool)

	m := pool.Metrics()
	for name, n := range map[string]int64{
		"submitted": 41, "started": 37, "completed": 33, "failed": 3,
		"canceled": 2, "cached": 17, "depth": 4, "evicted": 5, "timeouts": 1,
		"telemetry_spilled": 6, "events_subscribers": 2,
	} {
		m.CounterForTest(name).Add(n)
	}
	m.JobDoneForTest(1500*time.Millisecond, 250000)
	m.JobDoneForTest(250*time.Millisecond, 125000.5)
	m.JobDoneForTest(3*time.Millisecond, 0)
	m.ObserveTelemetryForTest(0.375)
	m.ObserveTelemetryForTest(0.125)
	m.ObserveTierDecision(analytic.TierAnalytic, analytic.Decision{Confidence: analytic.ConfidenceHigh})
	m.ObserveTierDecision(analytic.TierAnalytic, analytic.Decision{Confidence: analytic.ConfidenceHigh})
	for _, class := range []string{analytic.ReasonStealing, analytic.ReasonDataDependent, analytic.ReasonStealing, ""} {
		m.ObserveTierDecision(analytic.TierEvent, analytic.Decision{Class: class})
	}

	for i := 0; i < 3; i++ {
		srv.Cache().Do(context.Background(), simsvc.Request{Workload: "vecadd", Policy: "ladm", Scale: i + 1}.Normalize().Key(),
			func() (*stats.Run, error) { return &stats.Run{Workload: "vecadd", Policy: "ladm"}, nil })
	}
	srv.TrackJobsForTest(7)

	// Store: three records under a two-record cap (one eviction), a hit,
	// a miss, a quarantine, then a write that cannot land — retries
	// exhausted, the store degrades and the next write is dropped.
	dir := t.TempDir()
	store, err := simsvc.NewDiskStore(dir, 600, "golden", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	prov := stats.Provenance{Tool: "golden", CreatedUnix: 1}
	key := func(c byte) string { return strings.Repeat(string(c), 64) }
	for _, c := range []byte{'a', 'b', 'c'} {
		store.Store.Put(key(c), []byte(`{"golden":true}`), prov)
	}
	store.Store.Get(key('c'))
	store.Store.Get(key('d'))
	store.Store.Quarantine(key('b'), io.ErrUnexpectedEOF)
	if err := os.RemoveAll(filepath.Join(dir, "tmp")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	store.Store.Put(key('e'), []byte(`{}`), prov)
	store.Store.Put(key('f'), []byte(`{}`), prov)
	srv.SetStore(store)

	// Fleet: two endpoints that are never dialed. One unnameable job
	// runs on the local runner without touching the network.
	fl, err := fleet.New(fleet.Config{
		Endpoints: []string{"http://fleet-a.invalid:9001", "http://fleet-b.invalid:9002"},
		Local:     fixedRunner{},
		Log:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := core.Sweep(ctx, fl, []core.Job{{}}); err != nil {
		t.Fatal(err)
	}
	srv.SetFleet(fl)

	obs := svcobs.NewObserver(nil)
	obs.Stage.Observe(0.0004, "received", "")
	obs.Stage.Observe(0.002, "cache_probe", "analytic")
	obs.Stage.Observe(0.75, "compute", "event")
	obs.Stage.Observe(42, "compute", "event")
	obs.HTTP.Observe(0.003, "POST /run", "200")
	obs.HTTP.Observe(0.0007, "GET /statusz", "200")
	obs.HTTP.Observe(400, "POST /sweep", "503")
	srv.SetObserver(obs)
	return srv
}

// TestMetricsExpositionGolden pins the full GET /metrics body of a
// server with every metric source attached, byte for byte: series
// names, labels, HELP strings, family order and number formatting.
func TestMetricsExpositionGolden(t *testing.T) {
	srv := goldenServer(t)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	got := rec.Body.String()
	if *updateGolden {
		if err := os.WriteFile(metricsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(metricsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("GET /metrics differs from %s:\n--- got\n%s", metricsGolden, got)
	}
}

// promScalars parses the unlabeled samples out of a text exposition:
// the reference the /statusz metrics object is checked against.
func promScalars(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		f, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil {
			t.Fatalf("malformed sample line %q", line)
		}
		out[name] = f
	}
	return out
}

// checkScalarParity asserts that /statusz's metrics object holds exactly
// the unlabeled samples of the same server's /metrics.
func checkScalarParity(t *testing.T, h http.Handler) {
	t.Helper()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		return rec
	}
	want := promScalars(t, get("/metrics").Body.String())
	var st simsvc.Statusz
	if err := json.Unmarshal(get("/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !maps.Equal(st.Metrics, want) {
		t.Errorf("statusz metrics differ from /metrics scalars:\n got  %v\n want %v", st.Metrics, want)
	}
}

func TestStatuszMetricsMatchExposition(t *testing.T) {
	t.Run("golden", func(t *testing.T) {
		checkScalarParity(t, goldenServer(t).Handler())
	})
	t.Run("live", func(t *testing.T) {
		pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 1,
			Simulate: func(_ context.Context, job core.Job) (*stats.Run, error) {
				return &stats.Run{Workload: job.Workload.Name, Cycles: 12345}, nil
			}})
		t.Cleanup(pool.Close)
		h := simsvc.NewServer(pool).Handler()
		for _, body := range []string{`{"workload":"vecadd"}`, `{"workload":"vecadd"}`, `{"workload":"sq-gemm"}`} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /run %s = %d: %s", body, rec.Code, rec.Body)
			}
		}
		checkScalarParity(t, h)
	})
}
