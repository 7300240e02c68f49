package simsvc

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"

	"ladm/internal/kernels"
)

// badRequests names one unknown value per field Validate checks, plus
// combinations that show which field's error wins.
var badRequests = []struct {
	name string
	req  Request
}{
	{"workload", Request{Workload: "nope"}},
	{"policy", Request{Workload: "vecadd", Policy: "nope"}},
	{"machine", Request{Workload: "vecadd", Machine: "nope"}},
	{"fidelity", Request{Workload: "vecadd", Fidelity: "nope"}},
	{"fidelity-first", Request{Workload: "nope", Policy: "nope", Machine: "nope", Fidelity: "nope"}},
	{"workload-before-policy", Request{Workload: "nope", Policy: "nope", Machine: "nope"}},
	{"policy-before-machine", Request{Workload: "vecadd", Policy: "nope", Machine: "nope"}},
}

// TestValidateMatchesResolve: Validate reports exactly Resolve's error,
// and nothing when Resolve succeeds.
func TestValidateMatchesResolve(t *testing.T) {
	for _, c := range badRequests {
		_, rerr := c.req.Resolve()
		verr := c.req.Validate()
		if rerr == nil || verr == nil || verr.Error() != rerr.Error() {
			t.Errorf("%s: Validate() = %v, Resolve() = %v", c.name, verr, rerr)
		}
	}
	for _, ok := range []Request{
		{Workload: "vecadd"},
		{Workload: "pagerank", Policy: "h-coda", Machine: "dgx", Scale: 64, Fidelity: FidelityAuto},
		{Workload: "sq-gemm", Fidelity: FidelityEvent},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", ok, err)
		}
	}
}

// TestAdmissionErrorBodies: /run and /sweep reject unknown names and
// fidelities with a 400 whose body is the error Resolve reports — the
// shape clients saw when admission built the job to check it.
func TestAdmissionErrorBodies(t *testing.T) {
	ts, _ := newTestService(t, new(atomic.Int64))
	for _, c := range badRequests {
		_, rerr := c.req.Resolve()
		b, err := json.MarshalIndent(map[string]string{"error": rerr.Error()}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want := string(b) + "\n"

		resp, body := postJSON(t, ts.URL+"/run", c.req)
		if resp.StatusCode != http.StatusBadRequest || string(body) != want {
			t.Errorf("/run %s: %d %s, want 400 %s", c.name, resp.StatusCode, body, want)
		}
		// The one-cell sweep of the same request fails the same way.
		sweep := sweepRequest{
			Workloads: []string{c.req.Workload},
			Policies:  []string{c.req.Policy},
			Machines:  []string{c.req.Machine},
			Fidelity:  c.req.Fidelity,
		}
		if c.req.Policy == "" {
			sweep.Policies = nil
		}
		if c.req.Machine == "" {
			sweep.Machines = nil
		}
		resp, body = postJSON(t, ts.URL+"/sweep", sweep)
		if resp.StatusCode != http.StatusBadRequest || string(body) != want {
			t.Errorf("/sweep %s: %d %s, want 400 %s", c.name, resp.StatusCode, body, want)
		}
	}
}

// TestMemoryHitBuildsNoWorkload: only a miss builds the workload; a
// repeat of a cell is answered from memory without touching the kernel
// registry's builders.
func TestMemoryHitBuildsNoWorkload(t *testing.T) {
	var builds atomic.Int64
	defer func(orig func(string, int) (*kernels.Spec, error)) { buildWorkload = orig }(buildWorkload)
	buildWorkload = func(name string, scale int) (*kernels.Spec, error) {
		builds.Add(1)
		return kernels.ByName(name, scale)
	}
	ts, _ := newTestService(t, new(atomic.Int64))
	for _, req := range []Request{
		{Workload: "pagerank", Scale: 64},
		{Workload: "vecadd", Scale: 64, Fidelity: FidelityAuto},
	} {
		runSync(t, ts, req)
		if n := builds.Swap(0); n != 1 {
			t.Errorf("%s miss built the workload %d times, want 1", req.Workload, n)
		}
		for i := 0; i < 3; i++ {
			if v := runSync(t, ts, req); !v.Cached {
				t.Fatalf("%s repeat %d was not a cache hit", req.Workload, i)
			}
		}
		if n := builds.Load(); n != 0 {
			t.Errorf("%s memory hits built the workload %d times, want 0", req.Workload, n)
		}
	}
	// A sweep over already-cached cells builds nothing either.
	resp, body := postJSON(t, ts.URL+"/sweep", sweepRequest{Workloads: []string{"pagerank"}, Scale: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("cached sweep built %d workloads, want 0", n)
	}
}
