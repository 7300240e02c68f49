package analytic

import (
	"context"
	"sort"
	"sync"
	"testing"

	"ladm/internal/core"
	"ladm/internal/stats"
)

type fakeFallback struct {
	mu  sync.Mutex
	got []string
}

func (f *fakeFallback) Exec(ctx context.Context, j core.Job) (*stats.Run, error) {
	f.mu.Lock()
	f.got = append(f.got, j.Workload.Name)
	f.mu.Unlock()
	return &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name}, nil
}

// TestRunnerSweepSplitsTiers drives a mixed sweep through the oracle:
// regular cells must come back from the model, irregular cells from the
// fallback, in the original job order and with the right tier tags.
func TestRunnerSweepSplitsTiers(t *testing.T) {
	jobs := []core.Job{
		testJob(t, "vecadd", testScale),   // regular
		testJob(t, "lbm", testScale),      // data-dependent: escalates
		testJob(t, "sq-gemm", testScale),  // regular
		testJob(t, "spmv-jds", testScale), // per-block trip counts: escalates
	}
	fb := &fakeFallback{}
	var (
		mu                 sync.Mutex
		decisions, classes []string
	)
	r := &Runner{
		Fallback: fb,
		Scale:    testScale,
		OnDecision: func(tier string, d Decision) {
			mu.Lock()
			defer mu.Unlock()
			decisions = append(decisions, tier+"/"+d.Confidence)
			if d.Confidence == ConfidenceEscalate {
				classes = append(classes, d.Class)
			}
		},
	}
	runs, err := core.Sweep(context.Background(), r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(jobs) {
		t.Fatalf("got %d runs, want %d", len(runs), len(jobs))
	}
	for i, job := range jobs {
		if runs[i] == nil || runs[i].Workload != job.Workload.Name {
			t.Fatalf("run %d out of order: %+v", i, runs[i])
		}
	}
	if runs[0].Tier != TierAnalytic || runs[2].Tier != TierAnalytic {
		t.Errorf("regular cells served by %q/%q, want analytic", runs[0].Tier, runs[2].Tier)
	}
	if runs[1].Tier != TierEvent || runs[1].Confidence != ConfidenceEscalate {
		t.Errorf("lbm tagged %q/%q, want event/escalate", runs[1].Tier, runs[1].Confidence)
	}
	if runs[3].Tier != TierEvent || runs[3].Confidence != ConfidenceEscalate {
		t.Errorf("spmv-jds tagged %q/%q, want event/escalate", runs[3].Tier, runs[3].Confidence)
	}
	// Jobs run concurrently, so the fallback's jobs and the decisions are
	// compared as sorted sets; the per-job tier tags above pin which job
	// got which.
	sort.Strings(fb.got)
	if len(fb.got) != 2 || fb.got[0] != "lbm" || fb.got[1] != "spmv-jds" {
		t.Errorf("fallback saw %v, want [lbm spmv-jds]", fb.got)
	}
	sort.Strings(decisions)
	sort.Strings(classes)
	want := []string{
		TierAnalytic + "/" + ConfidenceHigh,
		TierAnalytic + "/" + ConfidenceHigh,
		TierEvent + "/" + ConfidenceEscalate,
		TierEvent + "/" + ConfidenceEscalate,
	}
	if len(decisions) != len(want) {
		t.Fatalf("got %d decisions, want %d", len(decisions), len(want))
	}
	for i := range want {
		if decisions[i] != want[i] {
			t.Errorf("decision %d = %s, want %s", i, decisions[i], want[i])
		}
	}
	// Every escalation carries a bounded reason class for the metrics
	// label (lbm is data-dependent, spmv-jds has per-block trip counts).
	wantClasses := []string{ReasonDataDependent, ReasonBlockTrips}
	sort.Strings(wantClasses)
	if len(classes) != len(wantClasses) {
		t.Fatalf("got %d escalation classes %v, want %d", len(classes), classes, len(wantClasses))
	}
	for i := range wantClasses {
		if classes[i] != wantClasses[i] {
			t.Errorf("escalation class %d = %q, want %q", i, classes[i], wantClasses[i])
		}
	}
}

// TestRunnerNoFallback pins the model-only mode: escalation without a
// fallback is an error, not a silent wrong answer.
func TestRunnerNoFallback(t *testing.T) {
	r := &Runner{}
	if _, err := r.Exec(context.Background(), testJob(t, "lbm", testScale)); err == nil {
		t.Fatal("escalation without a fallback must error")
	}
	run, err := r.Exec(context.Background(), testJob(t, "vecadd", testScale))
	if err != nil {
		t.Fatal(err)
	}
	if run.Tier != TierAnalytic {
		t.Errorf("got tier %q, want analytic", run.Tier)
	}
}
