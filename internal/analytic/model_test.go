package analytic

import (
	"strings"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simtel"
)

// testScale keeps the event-engine reference runs fast; the budget file
// is pinned across scales 6, 8 and 16, so any of them is a valid probe.
const testScale = 16

func testJob(t *testing.T, name string, scale int) core.Job {
	t.Helper()
	spec, err := kernels.ByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	return core.Job{Workload: spec.W, Policy: rt.LADM(), Arch: arch.DefaultHierarchical()}
}

// TestRegularSubsetWithinBudget is the in-tree half of the tiercheck
// validation harness: every registry workload the model claims as
// high-confidence must predict the local/remote traffic split within the
// pinned error budget of the event engine.
func TestRegularSubsetWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("event-engine reference runs")
	}
	high := 0
	for _, name := range kernels.Names() {
		job := testJob(t, name, testScale)
		if d := AssessJob(job); d.Confidence != ConfidenceHigh {
			if d.Reason == "" {
				t.Errorf("%s: escalation without a reason", name)
			}
			continue
		}
		high++
		pred, err := Predict(job)
		if err != nil {
			t.Fatalf("%s: predict: %v", name, err)
		}
		if pred.Tier != TierAnalytic || pred.Confidence != ConfidenceHigh {
			t.Errorf("%s: prediction tagged %q/%q, want %q/%q",
				name, pred.Tier, pred.Confidence, TierAnalytic, ConfidenceHigh)
		}
		ev, err := core.Simulate(job.Workload, job.Arch, job.Policy)
		if err != nil {
			t.Fatalf("%s: simulate: %v", name, err)
		}
		if err, budget := SplitError(pred, ev), ErrorBudget(name); err > budget {
			t.Errorf("%s: split error %.3f exceeds pinned budget %.3f (offnode pred=%.3f ev=%.3f, rshare pred=%.3f ev=%.3f)",
				name, err, budget, pred.OffNodeFraction(), ev.OffNodeFraction(),
				RemoteShare(pred), RemoteShare(ev))
		}
	}
	if high < 10 {
		t.Fatalf("only %d workloads assessed high-confidence; the regular subset shrank", high)
	}
}

// TestIrregularWorkloadsEscalate pins the Table II boundary: the
// data-dependent, intra-thread and per-block-trip-count workloads must
// never be answered by the closed-form model.
func TestIrregularWorkloadsEscalate(t *testing.T) {
	irregular := []string{
		"b+tree", "bfs-relax", "histo-main", "kmeans-notex", "lbm",
		"pagerank", "random-loc", "spmv-jds", "sssp", "streamcluster",
	}
	for _, name := range irregular {
		job := testJob(t, name, testScale)
		d := AssessJob(job)
		if d.Confidence != ConfidenceEscalate {
			t.Errorf("%s: assessed %q, want escalation", name, d.Confidence)
		}
	}
}

// TestPolicyAndArchEscalation covers the job attributes outside the
// workload that put a run beyond the model: first-touch placement (the
// fault schedule is history-dependent), threadblock stealing, bounded
// memory (paging), and telemetry collection (the model has no events to
// report).
func TestPolicyAndArchEscalation(t *testing.T) {
	base := testJob(t, "sq-gemm", testScale)
	if d := AssessJob(base); d.Confidence != ConfidenceHigh {
		t.Fatalf("baseline sq-gemm escalated: %s", d.Reason)
	}

	ft := base
	ft.Policy = rt.BatchFT()
	if d := AssessJob(ft); d.Confidence != ConfidenceEscalate {
		t.Error("first-touch placement must escalate")
	}

	steal := base
	steal.Policy.StealTBs = true
	if d := AssessJob(steal); d.Confidence != ConfidenceEscalate {
		t.Error("threadblock stealing must escalate")
	}

	paged := base
	paged.Arch.MemCapacityPerNodeKB = 1024
	if d := AssessJob(paged); d.Confidence != ConfidenceEscalate {
		t.Error("bounded per-node memory must escalate")
	}

	tel := base
	tel.Tel = &simtel.Collector{}
	if d := AssessJob(tel); d.Confidence != ConfidenceEscalate {
		t.Error("telemetry collection must escalate")
	}
}

// TestRunnerEscalatesMutatedAndCustom pins the provenance check: a
// workload that is not byte-equal to its registry build must escalate
// even when its access patterns look regular.
func TestRunnerEscalatesMutatedAndCustom(t *testing.T) {
	r := &Runner{Scale: testScale}

	pristine := testJob(t, "sq-gemm", testScale)
	if d := r.Assess(pristine); d.Confidence != ConfidenceHigh {
		t.Fatalf("pristine registry workload escalated: %s", d.Reason)
	}

	mutated := testJob(t, "sq-gemm", testScale)
	mutated.Workload.Launches[0].Times = mutated.Workload.Launches[0].EffTimes() + 1
	d := r.Assess(mutated)
	if d.Confidence != ConfidenceEscalate {
		t.Fatal("mutated launch must escalate")
	}
	if !strings.Contains(d.Reason, "custom or mutated") {
		t.Errorf("unexpected reason: %s", d.Reason)
	}

	custom := testJob(t, "vecadd", testScale)
	custom.Workload.Name = "my-custom-kernel"
	if d := r.Assess(custom); d.Confidence != ConfidenceEscalate {
		t.Fatal("custom workload must escalate")
	}

	// Without a registry scale the caller vouches for the workload.
	unscoped := &Runner{}
	mutated2 := testJob(t, "sq-gemm", testScale)
	mutated2.Workload.Launches[0].Times++
	if d := unscoped.Assess(mutated2); d.Confidence != ConfidenceHigh {
		t.Errorf("scale-less runner re-checked provenance: %s", d.Reason)
	}
}

func BenchmarkTierAnalytic(b *testing.B) {
	spec, err := kernels.ByName("tra", 8)
	if err != nil {
		b.Fatal(err)
	}
	job := core.Job{Workload: spec.W, Policy: rt.LADM(), Arch: arch.DefaultHierarchical()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTierEvent(b *testing.B) {
	spec, err := kernels.ByName("tra", 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := arch.DefaultHierarchical()
	pol := rt.LADM()
	// One warm-up run retires an engine to the engine package's pool, so
	// every sample measures the same warm state instead of whichever
	// engine the pool happens to hand it.
	if _, err := core.Simulate(spec.W, cfg, pol); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(spec.W, cfg, pol); err != nil {
			b.Fatal(err)
		}
	}
}
