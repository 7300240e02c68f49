package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/faultinject"
	"ladm/internal/kir"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// testSim is a deterministic fake pipeline: the record is a pure
// function of the job, so local and remote execution must agree
// bytewise — exactly the invariant the fleet layer leans on.
func testSim(ctx context.Context, job core.Job) (*stats.Run, error) {
	return &stats.Run{
		Workload:   job.Workload.Name,
		Policy:     job.Policy.Name,
		Arch:       "hier",
		Cycles:     float64(1000 + 7*len(job.Workload.Name)),
		WarpInstrs: uint64(13 * len(job.Policy.Name)),
	}, nil
}

// newWorker spins up a remote ladmserve-shaped instance over the fake
// pipeline and counts the POST /run requests it serves.
func newWorker(t *testing.T) (*httptest.Server, *simsvc.Server, *atomic.Int64) {
	t.Helper()
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 2, Simulate: testSim})
	t.Cleanup(pool.Close)
	srv := simsvc.NewServer(pool)
	inner := srv.Handler()
	var runHits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" {
			runHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, srv, &runHits
}

// testJobs resolves registry-named workload/policy pairs at the default
// scale — the jobs a fleet can serve remotely.
func testJobs(t *testing.T, pairs ...[2]string) []core.Job {
	t.Helper()
	jobs := make([]core.Job, 0, len(pairs))
	for _, p := range pairs {
		req := simsvc.Request{Workload: p[0], Policy: p[1]}.Normalize()
		job, err := req.Resolve()
		if err != nil {
			t.Fatalf("resolve %s/%s: %v", p[0], p[1], err)
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// testConfig is the base fleet config for tests, with limits that keep
// retries and breaker cooldowns in the milliseconds; pass both to
// newRunner.
func testConfig(local core.Runner, endpoints ...string) (Config, limits) {
	return Config{Endpoints: endpoints, Local: local}, limits{
		attemptTimeout:   10 * time.Second,
		maxAttempts:      3,
		retryBase:        time.Millisecond,
		retryMax:         4 * time.Millisecond,
		breakerThreshold: 3,
		breakerCooldown:  50 * time.Millisecond,
		perEndpoint:      4,
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestSweepRemoteByteIdentical is the core promise: a fleet sweep over
// healthy remotes returns records byte-identical to a pure local run —
// including a labeled job, whose label core.Sweep applies to the remote
// record exactly as to a local one.
func TestSweepRemoteByteIdentical(t *testing.T) {
	tsA, _, hitsA := newWorker(t)
	tsB, _, hitsB := newWorker(t)
	local := core.RunFunc(testSim)
	fl, err := newRunner(testConfig(local, tsA.URL, tsB.URL))
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t,
		[2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"},
		[2]string{"scalarprod", "ladm"}, [2]string{"scalarprod", "baseline-rr"})
	jobs[0].Label = "variant-a"

	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Sweep(context.Background(), local, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("fleet sweep diverged from local:\n got %s\nwant %s", g, w)
	}
	m := fl.m
	if m.remoteJobs.Load() != int64(len(jobs)) || m.degraded.Load() != 0 || m.localJobs.Load() != 0 {
		t.Fatalf("remote/degraded/local = %d/%d/%d, want all %d jobs remote",
			m.remoteJobs.Load(), m.degraded.Load(), m.localJobs.Load(), len(jobs))
	}
	if n := hitsA.Load() + hitsB.Load(); n != int64(len(jobs)) {
		t.Fatalf("workers served %d /run requests, want %d", n, len(jobs))
	}
	if hitsA.Load() == 0 || hitsB.Load() == 0 {
		t.Fatalf("round-robin did not spread load: A=%d B=%d", hitsA.Load(), hitsB.Load())
	}
}

// TestSweepUnnameableStaysLocal: jobs with no registry name (custom
// workloads) must never be sent over the wire — they run on Local.
func TestSweepUnnameableStaysLocal(t *testing.T) {
	ts, _, hits := newWorker(t)
	local := core.RunFunc(testSim)
	fl, err := newRunner(testConfig(local, ts.URL))
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	jobs[0].Workload = &kir.Workload{Name: "custom-gemm"}

	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("local-batch result diverged")
	}
	m := fl.m
	if m.localJobs.Load() != 1 || m.remoteJobs.Load() != 0 || hits.Load() != 0 {
		t.Fatalf("custom job leaked to the fleet: local %d, remote %d, hits %d",
			m.localJobs.Load(), m.remoteJobs.Load(), hits.Load())
	}
}

// TestRetryThenSucceed: transient 5xx answers are retried with backoff
// until the endpoint recovers; no degrade, no breaker trip.
func TestRetryThenSucceed(t *testing.T) {
	ts, _, _ := newWorker(t)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" && calls.Add(1) <= 2 {
			http.Error(w, `{"error":"induced transient failure"}`, http.StatusInternalServerError)
			return
		}
		// Delegate to the healthy worker's handler via reverse proxy of
		// convenience: re-issue the request against it.
		proxyTo(w, r, ts.URL)
	}))
	defer flaky.Close()

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, flaky.URL)
	lim.breakerThreshold = 5
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("retried result diverged from local")
	}
	m := fl.m
	if m.retries.Load() != 2 || m.attempts.Load() != 3 || m.remoteJobs.Load() != 1 || m.degraded.Load() != 0 {
		t.Fatalf("retries/attempts/remote/degraded = %d/%d/%d/%d, want 2 retries, 3 attempts, remote success",
			m.retries.Load(), m.attempts.Load(), m.remoteJobs.Load(), m.degraded.Load())
	}
}

// proxyTo re-issues the incoming request against base and copies the
// answer back — a minimal pass-through for flaky-then-healthy handlers.
func proxyTo(w http.ResponseWriter, r *http.Request, base string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.Path, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	w.Write(buf.Bytes())
}

// TestBreakerOpensAndDegrades: a persistently failing endpoint trips
// its breaker; the job degrades to local and the record is still the
// local truth.
func TestBreakerOpensAndDegrades(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"wedged"}`, http.StatusInternalServerError)
	}))
	defer dead.Close()

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, dead.URL)
	lim.breakerThreshold = 2
	lim.maxAttempts = 4
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("degraded result diverged from local")
	}
	m := fl.m
	if m.degraded.Load() != 1 || m.remoteJobs.Load() != 0 {
		t.Fatalf("degraded/remote = %d/%d, want 1 degraded job", m.degraded.Load(), m.remoteJobs.Load())
	}
	eps := fl.Endpoints()
	if eps[0].Breaker != "open" || eps[0].Failures != 2 {
		t.Fatalf("endpoint = %+v, want open breaker after 2 failures", eps[0])
	}
}

// TestBreakerRecovers: after the cooldown a half-open probe goes
// through; a healthy answer closes the circuit and traffic resumes.
func TestBreakerRecovers(t *testing.T) {
	ts, _, _ := newWorker(t)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/run" && calls.Add(1) <= 2 {
			http.Error(w, `{"error":"rebooting"}`, http.StatusInternalServerError)
			return
		}
		proxyTo(w, r, ts.URL)
	}))
	defer flaky.Close()

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, flaky.URL)
	lim.breakerThreshold = 2
	lim.maxAttempts = 2
	lim.breakerCooldown = 30 * time.Millisecond
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"})

	// Job 1: both attempts fail, the breaker opens, the job degrades.
	if _, err := core.Sweep(context.Background(), fl, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	if st := fl.Endpoints()[0].Breaker; st != "open" {
		t.Fatalf("breaker = %s, want open", st)
	}
	time.Sleep(60 * time.Millisecond)

	// Job 2: the half-open probe succeeds and the circuit closes.
	got, err := core.Sweep(context.Background(), fl, jobs[1:])
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs[1:])
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("post-recovery result diverged from local")
	}
	m := fl.m
	if m.remoteJobs.Load() != 1 || m.degraded.Load() != 1 {
		t.Fatalf("remote/degraded = %d/%d, want 1 degraded then 1 remote", m.remoteJobs.Load(), m.degraded.Load())
	}
	if st := fl.Endpoints()[0].Breaker; st != "closed" {
		t.Fatalf("breaker = %s after successful probe, want closed", st)
	}
}

// TestDeadEndpointShedByBreaker pins the breaker's measured win: with
// one endpoint dead and one live, the dead one costs exactly the
// breaker threshold of failed attempts before its circuit opens, every
// job is still served remotely, and none degrades.
func TestDeadEndpointShedByBreaker(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	deadURL := gone.URL
	gone.Close() // connection refused from here on
	live, _, hits := newWorker(t)

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, deadURL, live.URL)
	lim.breakerCooldown = time.Hour // no half-open probe inside the test
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t,
		[2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"},
		[2]string{"vecadd", "coda"}, [2]string{"vecadd", "baseline-rr"},
		[2]string{"scalarprod", "ladm"}, [2]string{"scalarprod", "h-coda"},
		[2]string{"srad", "ladm"}, [2]string{"blk", "ladm"})
	// One job at a time, so no attempt is admitted to the dead endpoint
	// while another is about to trip its breaker.
	for _, job := range jobs {
		got, err := fl.Exec(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := local.Exec(context.Background(), job)
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("%s/%s diverged from local", job.Workload.Name, job.Policy.Name)
		}
	}
	m := fl.m
	if m.remoteJobs.Load() != int64(len(jobs)) || m.degraded.Load() != 0 || hits.Load() != int64(len(jobs)) {
		t.Fatalf("remote/degraded/live hits = %d/%d/%d, want all %d jobs served by the live worker",
			m.remoteJobs.Load(), m.degraded.Load(), hits.Load(), len(jobs))
	}
	dead := fl.Endpoints()[0]
	if dead.Failures != int64(lim.breakerThreshold) || dead.Attempts != dead.Failures || dead.Breaker != "open" {
		t.Fatalf("dead endpoint = %+v, want exactly %d failed attempts and an open breaker",
			dead, lim.breakerThreshold)
	}
}

// TestDegradeToLocalWhenFleetDown: with every endpoint refusing
// connections the campaign still completes, locally, with records
// byte-identical to a pure local run.
func TestDegradeToLocalWhenFleetDown(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	url := gone.URL
	gone.Close() // connection refused from here on

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, url)
	lim.breakerThreshold = 2
	lim.maxAttempts = 2
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t,
		[2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"},
		[2]string{"scalarprod", "ladm"})
	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.Sweep(context.Background(), local, jobs)
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatalf("degraded sweep diverged from local")
	}
	m := fl.m
	if m.degraded.Load() != int64(len(jobs)) || m.remoteJobs.Load() != 0 {
		t.Fatalf("degraded/remote = %d/%d, want all %d jobs degraded", m.degraded.Load(), m.remoteJobs.Load(), len(jobs))
	}

	var buf bytes.Buffer
	fl.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, fmt.Sprintf("fleet_degraded_jobs_total %d", len(jobs))) {
		t.Fatalf("metrics missing degraded count:\n%s", out)
	}
	if !strings.Contains(out, "fleet_breaker_state") {
		t.Fatalf("metrics missing the breaker family:\n%s", out)
	}
}

// TestJobFailedDegradesWithLocalError: when the remote ran the job and
// the job itself failed, the fleet does not retry — the local degrade
// run reproduces the authoritative error.
func TestJobFailedDegradesWithLocalError(t *testing.T) {
	failSim := func(ctx context.Context, job core.Job) (*stats.Run, error) {
		return nil, errors.New("boom: " + job.Workload.Name)
	}
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 1, Simulate: failSim})
	t.Cleanup(pool.Close)
	ts := httptest.NewServer(simsvc.NewServer(pool).Handler())
	defer ts.Close()

	local := core.RunFunc(failSim)
	fl, err := newRunner(testConfig(local, ts.URL))
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t, [2]string{"vecadd", "ladm"})
	_, err = core.Sweep(context.Background(), fl, jobs)
	_, wantErr := core.Sweep(context.Background(), local, jobs)
	if err == nil || wantErr == nil {
		t.Fatalf("both runs should fail: fleet=%v local=%v", err, wantErr)
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("fleet error %q != local error %q", err, wantErr)
	}
	m := fl.m
	if m.degraded.Load() != 1 || m.retries.Load() != 0 {
		t.Fatalf("degraded/retries = %d/%d, want 1 degraded job with no retries", m.degraded.Load(), m.retries.Load())
	}
}

// TestFaultInjectedByteIdentical is the chaos pin: with deterministic
// error/reset/partial faults on the transport, a fleet sweep still
// produces records byte-identical to a pure local run — retries,
// duplicated work and degrades included.
func TestFaultInjectedByteIdentical(t *testing.T) {
	tsA, _, _ := newWorker(t)
	tsB, _, _ := newWorker(t)

	spec, err := faultinject.ParseSpec("seed=7,error=0.2,reset=0.15,partial=0.15")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(spec)
	client := &http.Client{Transport: &faultinject.Transport{Injector: inj}}

	local := core.RunFunc(testSim)
	cfg, lim := testConfig(local, tsA.URL, tsB.URL)
	cfg.Client = client
	lim.maxAttempts = 5
	lim.breakerThreshold = 100 // keep the circuit out of this test's way
	fl, err := newRunner(cfg, lim)
	if err != nil {
		t.Fatal(err)
	}

	jobs := testJobs(t,
		[2]string{"vecadd", "ladm"}, [2]string{"vecadd", "h-coda"},
		[2]string{"vecadd", "coda"}, [2]string{"vecadd", "baseline-rr"},
		[2]string{"scalarprod", "ladm"}, [2]string{"scalarprod", "h-coda"},
		[2]string{"srad", "ladm"}, [2]string{"blk", "ladm"})

	got, err := core.Sweep(context.Background(), fl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Sweep(context.Background(), local, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Fatalf("fault-injected sweep diverged from local:\n got %s\nwant %s", g, w)
	}
	if inj.Injected() == 0 {
		t.Fatalf("fault plane injected nothing; the chaos pin proved nothing")
	}
	m := fl.m
	if m.remoteJobs.Load()+m.degraded.Load() != int64(len(jobs)) {
		t.Fatalf("remote/degraded = %d/%d, want remote+degraded == %d", m.remoteJobs.Load(), m.degraded.Load(), len(jobs))
	}
}

// TestServerFrontEnd wires a fleet into a simsvc server the way
// `ladmserve -remote` does and checks a POST /run is served by the
// remote worker.
func TestServerFrontEnd(t *testing.T) {
	worker, _, hits := newWorker(t)

	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 1, Simulate: testSim})
	t.Cleanup(pool.Close)
	front := simsvc.NewServer(pool)
	fl, err := newRunner(testConfig(pool, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	front.SetFleet(fl)
	ts := httptest.NewServer(front.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"vecadd","policy":"ladm"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("front end answered %d", resp.StatusCode)
	}
	var view simsvc.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Status != simsvc.StatusDone || view.Run == nil || view.Run.Run == nil {
		t.Fatalf("view = %+v, want a finished run", view)
	}
	if view.Run.Run.Workload != "vecadd" {
		t.Fatalf("run = %+v", view.Run.Run)
	}
	if hits.Load() != 1 {
		t.Fatalf("worker served %d runs, want 1", hits.Load())
	}

	// The front end's /metrics must carry the fleet families.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	if !strings.Contains(buf.String(), "fleet_remote_jobs_total 1") {
		t.Fatalf("/metrics missing fleet counters:\n%s", buf.String())
	}
}

func TestNormalizeEndpoint(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"localhost:9001", "http://localhost:9001", true},
		{"http://box:8080/", "http://box:8080", true},
		{"https://box:8443", "https://box:8443", true},
		{" host:1 ", "http://host:1", true},
		{"", "", false},
		{"http://", "", false},
	}
	for _, c := range cases {
		got, err := normalizeEndpoint(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Errorf("normalizeEndpoint(%q) = %q, %v; want %q, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Local: core.RunFunc(core.SimulateJobContext)}); err == nil {
		t.Fatalf("New without endpoints should fail")
	}
	if _, err := New(Config{Endpoints: []string{"h:1"}}); err == nil {
		t.Fatalf("New without a local runner should fail")
	}
}
