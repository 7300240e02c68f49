package ladm_test

import (
	"reflect"
	"strings"
	"testing"

	"ladm"
	"ladm/internal/simtel"
)

func TestFacadeWorkloads(t *testing.T) {
	names := ladm.WorkloadNames()
	if len(names) != 27 {
		t.Fatalf("workloads = %d, want 27", len(names))
	}
	spec, err := ladm.Workload("vecadd", 16)
	if err != nil || spec.W.Name != "vecadd" {
		t.Fatalf("Workload(vecadd): %v, %v", spec, err)
	}
	if _, err := ladm.Workload("nope", 1); err == nil {
		t.Error("unknown workload should error")
	}
	if got := len(ladm.Workloads(16)); got != 27 {
		t.Errorf("Workloads = %d", got)
	}
	if got := len(ladm.WorkloadSuite("RCL", 16)); got != 10 {
		t.Errorf("RCL suite = %d", got)
	}
}

func TestFacadePolicies(t *testing.T) {
	if got := len(ladm.Policies()); got != 9 {
		t.Errorf("policies = %d, want 9", got)
	}
	p, err := ladm.PolicyByName("ladm")
	if err != nil || p.Name != "ladm" {
		t.Fatalf("PolicyByName: %v, %v", p, err)
	}
}

func TestFacadeSystems(t *testing.T) {
	for _, sys := range []ladm.System{
		ladm.TableIIISystem(), ladm.Monolithic(), ladm.FourGPUSwitch(180),
		ladm.FourChipletRing(1400), ladm.DGXLike(),
	} {
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", sys.Name, err)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	spec, err := ladm.Workload("sq-gemm", 16)
	if err != nil {
		t.Fatal(err)
	}
	sys := ladm.TableIIISystem()
	base, err := ladm.Simulate(spec.W, sys, ladm.HCODA())
	if err != nil {
		t.Fatal(err)
	}
	best, err := ladm.Simulate(spec.W, sys, ladm.LADM())
	if err != nil {
		t.Fatal(err)
	}
	if best.Speedup(base) < 1.0 {
		t.Errorf("LADM should not lose to H-CODA on sq-gemm: %.2f", best.Speedup(base))
	}
}

func TestFacadeDSLAndAnalyze(t *testing.T) {
	// The paper's Figure 6 A access through the public DSL.
	row := ladm.Sum(ladm.Prod(ladm.By, ladm.C(16)), ladm.Ty)
	idx := ladm.Sum(ladm.Prod(row, ladm.Prod(ladm.GDx, ladm.BDx)),
		ladm.Prod(ladm.M, ladm.C(16)), ladm.Tx)
	cl := ladm.Classify(idx, true)
	if cl.Type.TableRow() != 2 {
		t.Errorf("Figure 6 A classified into row %d, want 2", cl.Type.TableRow())
	}
	spec, _ := ladm.Workload("pagerank", 16)
	table := ladm.Analyze(spec.W)
	if len(table.Entries) == 0 || !strings.Contains(table.String(), "ITL") {
		t.Error("locality table missing ITL classification")
	}
}

func TestFacadeSweep(t *testing.T) {
	spec, _ := ladm.Workload("vecadd", 16)
	small, _ := ladm.Workload("vecadd", 32)
	sys := ladm.TableIIISystem()
	newTel := func() *simtel.Collector {
		return simtel.New(simtel.Config{SampleEvery: simtel.DefaultSampleEvery})
	}
	runs, err := ladm.Sweep([]ladm.Job{
		{Workload: spec.W, Policy: ladm.BaselineRR(), Arch: sys},
		{Workload: spec.W, Policy: ladm.LADM(), Arch: sys},
		{Workload: small.W, Policy: ladm.LADM(), Arch: sys, Tel: newTel()},
	}, 2)
	if err != nil || len(runs) != 3 {
		t.Fatalf("sweep: %v, %d runs", err, len(runs))
	}
	// A sweep job's collector sees its run exactly as SimulateJob's does.
	want, err := ladm.SimulateJob(ladm.Job{Workload: small.W, Policy: ladm.LADM(), Arch: sys, Tel: newTel()})
	if err != nil {
		t.Fatal(err)
	}
	if runs[2].Telemetry == nil || !reflect.DeepEqual(runs[2].Telemetry, want.Telemetry) {
		t.Errorf("sweep telemetry = %+v, want %+v", runs[2].Telemetry, want.Telemetry)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if got := len(ladm.ExperimentNames()); got != 13 {
		t.Errorf("experiments = %d", got)
	}
	r, err := ladm.Experiment("table2", ladm.ExperimentOptions{})
	if err != nil || !strings.Contains(r.Text, "Table II") {
		t.Fatalf("table2 experiment: %v, %v", r, err)
	}
}
