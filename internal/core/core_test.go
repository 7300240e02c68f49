package core

import (
	"context"
	"strings"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	sym "ladm/internal/symbolic"
)

func TestSimulatePipeline(t *testing.T) {
	spec, err := kernels.ByName("vecadd", 16)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Simulate(spec.W, arch.DefaultHierarchical(), rt.LADM())
	if err != nil {
		t.Fatal(err)
	}
	if run.Cycles <= 0 || run.Workload != "vecadd" || run.Policy != "ladm" {
		t.Errorf("run = %+v", run)
	}
}

func TestSimulateErrorPropagation(t *testing.T) {
	spec, _ := kernels.ByName("vecadd", 16)
	bad := arch.DefaultHierarchical()
	bad.GPUs = 0
	if _, err := Simulate(spec.W, bad, rt.LADM()); err == nil {
		t.Error("invalid arch should error")
	} else if !strings.Contains(err.Error(), "prepare") {
		t.Errorf("error should name the stage: %v", err)
	}
}

func TestSweepOrderAndLabels(t *testing.T) {
	spec, _ := kernels.ByName("vecadd", 16)
	cfg := arch.DefaultHierarchical()
	jobs := []Job{
		{Workload: spec.W, Policy: rt.BaselineRR(), Arch: cfg},
		{Workload: spec.W, Policy: rt.LADM(), Arch: cfg, Label: "tagged"},
		{Workload: spec.W, Policy: rt.KernelWide(), Arch: cfg},
	}
	runs, err := Sweep(context.Background(), RunFunc(SimulateJobContext), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("results = %d", len(runs))
	}
	if runs[0].Policy != "baseline-rr" || runs[1].Policy != "tagged" || runs[2].Policy != "kernel-wide" {
		t.Errorf("order/labels wrong: %s %s %s", runs[0].Policy, runs[1].Policy, runs[2].Policy)
	}
}

func TestSweepMatchesSerial(t *testing.T) {
	spec, _ := kernels.ByName("scalarprod", 16)
	cfg := arch.DefaultHierarchical()
	serial, err := Simulate(spec.W, cfg, rt.LADM())
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{
		{Workload: spec.W, Policy: rt.LADM(), Arch: cfg},
		{Workload: spec.W, Policy: rt.LADM(), Arch: cfg},
	}
	runs, err := Sweep(context.Background(), RunFunc(SimulateJobContext), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Cycles != serial.Cycles || r.DRAMBytes != serial.DRAMBytes {
			t.Errorf("parallel sweep diverged from serial run")
		}
	}
}

// TestManualMatchesLASP is the transparency argument of the paper,
// quantified: a hand-written locality descriptor that encodes the same
// decisions LASP derives automatically must not beat LASP by any
// meaningful margin on the strided workload.
func TestManualMatchesLASP(t *testing.T) {
	spec, err := kernels.ByName("scalarprod", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.DefaultHierarchical()
	k := spec.W.Launches[0].Kernel
	strideBytes := uint64(k.Block.X) * uint64(k.Grid.X) * 4
	ld := rt.LD(rt.Descriptor{
		Hints: map[string]rt.Hint{
			"A": {Kind: rt.HintStride, StrideBytes: strideBytes},
			"B": {Kind: rt.HintStride, StrideBytes: strideBytes},
		},
		Sched: rt.ManualKernelWide,
	})
	manual, err := Simulate(spec.W, cfg, ld)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Simulate(spec.W, cfg, rt.LADM())
	if err != nil {
		t.Fatal(err)
	}
	if auto.Cycles > manual.Cycles*1.10 {
		t.Errorf("LASP (%.0f cycles) lost more than 10%% to the hand-tuned descriptor (%.0f)",
			auto.Cycles, manual.Cycles)
	}
}

func TestSweepErrors(t *testing.T) {
	spec, _ := kernels.ByName("vecadd", 16)
	bad := arch.DefaultHierarchical()
	bad.GPUs = 0
	jobs := []Job{{Workload: spec.W, Policy: rt.LADM(), Arch: bad}}
	if _, err := Sweep(context.Background(), RunFunc(SimulateJobContext), jobs); err == nil {
		t.Error("sweep should surface job errors")
	}
	// Empty sweep is fine.
	if runs, err := Sweep(context.Background(), RunFunc(SimulateJobContext), nil); err != nil || len(runs) != 0 {
		t.Errorf("empty sweep: %v %v", runs, err)
	}
}

// TestMultiKernelWorkload exercises the paper's multi-kernel scenario: the
// placement decided from the locality table must serve both a row-oriented
// and a column-oriented kernel over the same data, with the L2s flushed at
// each kernel boundary.
func TestMultiKernelWorkload(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", 16)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.W
	// Append a second kernel reading A row-contiguously (an epilogue scan).
	gemm := w.Launches[0].Kernel
	scan := &kir.Kernel{
		Name: "epilogue", Grid: gemm.Grid, Block: gemm.Block, Iters: 1,
		Accesses: []kir.Access{{
			Array: "C", ElemSize: 4, Mode: kir.Load,
			Index: sym.Sum(
				sym.Prod(sym.Sum(sym.Prod(sym.By, sym.BDy), sym.Ty), sym.Prod(sym.GDx, sym.BDx)),
				sym.Prod(sym.Bx, sym.BDx), sym.Tx),
		}},
	}
	w.Launches = append(w.Launches, kir.Launch{Kernel: scan})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}

	single, err := Simulate(spec.W, arch.DefaultHierarchical(), rt.LADM())
	if err != nil {
		t.Fatal(err)
	}
	if single.TBs != gemm.Grid.Count()*2 {
		t.Errorf("TBs = %d, want both kernels'", single.TBs)
	}
	if single.Cycles <= 0 {
		t.Error("multi-kernel run produced no cycles")
	}
}

// TestPerLinkRingEndToEnd runs the full pipeline on the detailed ring
// model: results stay deterministic and the hop serialization cannot make
// the machine faster than the aggregate-ring model by more than noise.
func TestPerLinkRingEndToEnd(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", 16)
	if err != nil {
		t.Fatal(err)
	}
	agg := arch.DefaultHierarchical()
	det := arch.DefaultHierarchical()
	det.PerLinkRing = true
	det.Name = "hier-perlink"
	a, err := Simulate(spec.W, agg, rt.HCODA())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Simulate(spec.W, det, rt.HCODA())
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycles < a.Cycles*0.8 {
		t.Errorf("detailed ring (%.0f) implausibly faster than aggregate (%.0f)",
			d.Cycles, a.Cycles)
	}
	d2, err := Simulate(spec.W, det, rt.HCODA())
	if err != nil {
		t.Fatal(err)
	}
	if d2.Cycles != d.Cycles {
		t.Error("detailed ring nondeterministic")
	}
}
