package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
)

// TestFidelityKeySchema pins the dual hash layout: the default (event)
// fidelity must keep producing the exact pre-tier v2 key — so every
// cached result, stored record and golden stays valid — while each
// fidelity tier hashes to its own key and the tiers can never collide.
func TestFidelityKeySchema(t *testing.T) {
	base := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 8}

	// The event-tier key is byte-identical to the v2 layout, recomputed
	// here from first principles.
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%t",
		KeySchema, "vecadd", "ladm", "hier", 8, false)
	var want JobKey
	h.Sum(want[:0])
	if got := base.Key(); got != want {
		t.Fatalf("event-tier key %s drifted from the v2 layout %s", got, want)
	}

	// "event" is the same tier as the default and normalizes away.
	explicit := base
	explicit.Fidelity = FidelityEvent
	if explicit.Key() != base.Key() {
		t.Error(`fidelity "event" must hash identically to the default`)
	}

	// Each tier gets its own key; none collide with each other or with
	// the event tier.
	keys := map[JobKey]string{base.Key(): ""}
	for _, f := range []string{FidelityAnalytic, FidelityAuto} {
		r := base
		r.Fidelity = f
		k := r.Key()
		if prev, dup := keys[k]; dup {
			t.Errorf("fidelity %q collides with %q", f, prev)
		}
		keys[k] = f
	}

	// Telemetry still separates keys within a tier.
	tel := base
	tel.Fidelity, tel.Telemetry = FidelityAuto, true
	auto := base
	auto.Fidelity = FidelityAuto
	if tel.Key() == auto.Key() {
		t.Error("telemetry must still change the key under a fidelity tier")
	}
}

func TestFidelityResolveValidation(t *testing.T) {
	bad := Request{Workload: "vecadd", Fidelity: "cycle-exact"}
	if _, err := bad.Resolve(); err == nil || !strings.Contains(err.Error(), "fidelity") {
		t.Fatalf("bad fidelity should fail with a fidelity error, got %v", err)
	}
	for _, f := range []string{"", FidelityEvent, FidelityAnalytic, FidelityAuto} {
		if _, err := (Request{Workload: "vecadd", Fidelity: f}).Resolve(); err != nil {
			t.Errorf("fidelity %q: %v", f, err)
		}
	}
}

// TestServerFidelityRouting drives the tier oracle over HTTP: analytic
// answers a regular cell without touching the pool, auto escalates an
// irregular cell into the pool, strict analytic fails on it, and the
// tier counters land in /metrics. The pool's simulator is a fake, so a
// record with its sentinel cycle count proves the event engine path ran.
func TestServerFidelityRouting(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)

	// Regular workload, analytic tier: answered by the closed-form model.
	resp, body := postJSON(t, ts.URL+"/run",
		Request{Workload: "vecadd", Scale: 8, Fidelity: FidelityAnalytic})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analytic run: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Run == nil || v.Run.Tier != "analytic" || v.Run.Confidence != "high" {
		t.Fatalf("analytic record tagged %+v", v.Run)
	}
	if v.Request.Fidelity != FidelityAnalytic {
		t.Errorf("request view lost its fidelity: %+v", v.Request)
	}
	if calls.Load() != 0 {
		t.Errorf("analytic answer consumed %d pool simulations, want 0", calls.Load())
	}

	// Irregular workload, auto tier: escalates into the pool.
	resp, body = postJSON(t, ts.URL+"/run",
		Request{Workload: "lbm", Scale: 8, Fidelity: FidelityAuto})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto run: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Run == nil || v.Run.Tier != "event" || v.Run.Confidence != "escalate" {
		t.Fatalf("escalated record tagged %+v", v.Run)
	}
	if v.Run.Cycles != 12345 {
		t.Errorf("escalated run did not come from the pool's simulator: %+v", v.Run)
	}
	if calls.Load() != 1 {
		t.Errorf("escalation ran %d pool simulations, want 1", calls.Load())
	}

	// Strict analytic on the same irregular cell: a clear failure, never
	// a silent tier switch.
	resp, body = postJSON(t, ts.URL+"/run",
		Request{Workload: "lbm", Scale: 8, Fidelity: FidelityAnalytic})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("strict analytic on lbm: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed || !strings.Contains(v.Error, "escalated") {
		t.Errorf("strict analytic failure = %+v", v)
	}

	// Unknown fidelity is rejected up front.
	resp, body = postJSON(t, ts.URL+"/run",
		Request{Workload: "vecadd", Fidelity: "bogus"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "fidelity") {
		t.Errorf("bogus fidelity: %d %s", resp.StatusCode, body)
	}

	// Tier decisions surfaced in /metrics: one analytic answer, two
	// escalation decisions (the served auto job and the failed strict one).
	r, data := getBody(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", r.StatusCode)
	}
	for _, want := range []string{
		`simsvc_tier_jobs_total{tier="analytic",confidence="high"} 1`,
		`simsvc_tier_jobs_total{tier="event",confidence="escalate"} 2`,
		"simsvc_tier_escalations_total 2",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerFidelityCacheSeparation: the same cell run under the event
// tier and the analytic tier must produce two distinct jobs with
// distinct keys — an analytic answer must never be served from (or
// poison) the event-tier cache.
func TestServerFidelityCacheSeparation(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)

	run := func(fidelity string) JobView {
		t.Helper()
		req := Request{Workload: "vecadd", Scale: 8, Fidelity: fidelity}
		resp, body := postJSON(t, ts.URL+"/run", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %q: %d %s", fidelity, resp.StatusCode, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	event := run("")
	analytic := run(FidelityAnalytic)
	if event.Key == analytic.Key {
		t.Fatal("event and analytic jobs share a cache key")
	}
	if analytic.Cached {
		t.Error("analytic run was served from the event-tier cache")
	}
	if event.Run.Tier != "" || analytic.Run.Tier != "analytic" {
		t.Errorf("tier tags: event=%q analytic=%q", event.Run.Tier, analytic.Run.Tier)
	}
	// Re-running each tier hits its own entry.
	if v := run(""); !v.Cached {
		t.Error("event re-run missed its cache entry")
	}
	if v := run(FidelityAnalytic); !v.Cached {
		t.Error("analytic re-run missed its cache entry")
	}
}

// TestServerSweepFidelity: a sweep's fidelity applies to every cell and
// rides into each cell's request and record tags.
func TestServerSweepFidelity(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	resp, body := postJSON(t, ts.URL+"/sweep", map[string]any{
		"workloads": []string{"vecadd", "lbm"},
		"scale":     8,
		"fidelity":  "auto",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sv SweepView
	if err := json.Unmarshal(body, &sv); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]string{}
	for _, jv := range sv.Jobs {
		if jv.Request.Fidelity != FidelityAuto {
			t.Errorf("cell %s lost its fidelity: %+v", jv.ID, jv.Request)
		}
		if jv.Run != nil {
			tiers[jv.Request.Workload] = jv.Run.Tier
		}
	}
	if tiers["vecadd"] != "analytic" || tiers["lbm"] != "event" {
		t.Errorf("tier split = %v, want vecadd:analytic lbm:event", tiers)
	}
	if calls.Load() != 1 {
		t.Errorf("pool simulations = %d, want 1 (only the escalated cell)", calls.Load())
	}

	// A bad fidelity rejects the whole sweep before any cell runs.
	resp, body = postJSON(t, ts.URL+"/sweep", map[string]any{
		"workloads": []string{"vecadd"},
		"fidelity":  "bogus",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "fidelity") {
		t.Errorf("bogus sweep fidelity: %d %s", resp.StatusCode, body)
	}
}

// TestCachedRunnerFidelitySeparation: two campaigns over the same cells,
// one event-tier and one analytic-tier, must never share cache entries.
func TestCachedRunnerFidelitySeparation(t *testing.T) {
	const scale = 64
	spec, err := kernels.ByName("vecadd", scale)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rt.ByName("ladm")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := arch.ByName("hier")
	if err != nil {
		t.Fatal(err)
	}
	job := core.Job{Workload: spec.W, Policy: pol, Arch: cfg}

	var calls atomic.Int64
	inner := core.RunFunc(func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name}, nil
	})
	cache := NewCache(nil)
	event := &CachedRunner{Inner: inner, Cache: cache, Scale: scale}
	auto := &CachedRunner{Inner: inner, Cache: cache, Scale: scale, Fidelity: FidelityAuto}

	if _, err := core.Sweep(context.Background(), event, []core.Job{job}); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Sweep(context.Background(), auto, []core.Job{job}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("inner simulations = %d, want 2 (tiers must not share entries)", calls.Load())
	}
	// Same tier again: served from its own entry.
	if _, err := core.Sweep(context.Background(), auto, []core.Job{job}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Errorf("auto re-sweep re-simulated (calls = %d)", calls.Load())
	}
}
