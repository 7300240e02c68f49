// Package ladm is a from-scratch reproduction of "Locality-Centric Data
// and Threadblock Management for Massive GPUs" (MICRO 2020): the LADM
// system — threadblock-centric static index analysis, the LASP runtime for
// NUMA-GPU data placement and threadblock scheduling, and compiler-assisted
// remote-request bypassing — together with the hierarchical multi-GPU
// simulator it is evaluated on.
//
// The package is a curated façade over the implementation packages in
// internal/: it exposes machine descriptions, management policies, the 27
// Table IV workloads, a symbolic-index DSL for defining new kernels, the
// static analyzer, and the simulator. A minimal session:
//
//	spec, _ := ladm.Workload("sq-gemm", 8)
//	base, _ := ladm.Simulate(spec.W, ladm.TableIIISystem(), ladm.HCODA())
//	best, _ := ladm.Simulate(spec.W, ladm.TableIIISystem(), ladm.LADM())
//	fmt.Printf("LADM speedup: %.2fx\n", best.Speedup(base))
//
// The benchmark harness behind `cmd/ladmbench` is exposed via Experiment,
// which regenerates each of the paper's tables and figures.
package ladm

import (
	"context"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/core"
	"ladm/internal/experiments"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	sym "ladm/internal/symbolic"
)

// --- machines ---

// System describes a simulated machine (hierarchy, caches, interconnects).
type System = arch.Config

// TableIIISystem returns the paper's evaluated machine: 4 GPUs x 4
// chiplets x 16 SMs with ring- and switch-connected NUMA domains.
func TableIIISystem() System { return arch.DefaultHierarchical() }

// Monolithic returns the hypothetical 256-SM single-die GPU used as the
// normalization baseline.
func Monolithic() System { return arch.MonolithicGPU() }

// FourGPUSwitch returns a flat four-GPU machine behind a crossbar switch
// with the given per-link bandwidth in GB/s (Figure 4's xbar configs).
func FourGPUSwitch(linkGBs float64) System { return arch.FourGPUSwitch(linkGBs) }

// FourChipletRing returns a four-chiplet MCM-GPU with the given aggregate
// ring bandwidth in GB/s (Figure 4's ring configs).
func FourChipletRing(ringGBs float64) System { return arch.FourChipletRing(ringGBs) }

// DGXLike returns the 4-GPU NVLink-class topology of the Section IV-C
// hardware validation.
func DGXLike() System { return arch.DGXLike() }

// --- policies ---

// Policy is a complete NUMA management configuration: page placement,
// threadblock scheduling, and L2 remote-caching strategy.
type Policy = rt.Policy

// The policy presets evaluated in the paper.
var (
	BaselineRR     = rt.BaselineRR
	BatchFTOptimal = rt.BatchFTOptimal
	BatchFT        = rt.BatchFT
	KernelWide     = rt.KernelWide
	CODA           = rt.CODA
	HCODA          = rt.HCODA
	LASPRTwice     = rt.LASPRTwice
	LASPROnce      = rt.LASPROnce
	LADM           = rt.LADM
	Policies       = rt.All
	PolicyByName   = rt.ByName
)

// --- workloads ---

// WorkloadSpec couples a workload definition with its Table IV reference
// values.
type WorkloadSpec = kernels.Spec

// KernelWorkload is a complete benchmark: allocations, kernel launches,
// and synthetic data tables.
type KernelWorkload = kir.Workload

// Workload builds one of the paper's 27 workloads at a scale divisor
// (1 = paper-size inputs).
func Workload(name string, scale int) (*WorkloadSpec, error) {
	return kernels.ByName(name, scale)
}

// Workloads builds all 27 Table IV workloads at the given scale.
func Workloads(scale int) []*WorkloadSpec { return kernels.All(scale) }

// WorkloadNames lists the available workloads.
func WorkloadNames() []string { return kernels.Names() }

// WorkloadSuite returns the workloads with the given Table IV locality
// label ("NL", "NL-Xstride", "NL-Ystride", "RCL", "ITL", "unclassified").
func WorkloadSuite(label string, scale int) []*WorkloadSpec {
	return kernels.Suite(label, scale)
}

// --- kernel definition DSL ---

// Expr is a symbolic index expression over the CUDA prime variables.
type Expr = sym.Expr

// Kernel, Access, Launch, AllocSpec and Dim3 define custom workloads.
type (
	Kernel    = kir.Kernel
	Access    = kir.Access
	Launch    = kir.Launch
	AllocSpec = kir.AllocSpec
	Dim3      = kir.Dim3
)

// Access modes and phases.
const (
	Load     = kir.Load
	Store    = kir.Store
	InLoop   = kir.InLoop
	PreLoop  = kir.PreLoop
	PostLoop = kir.PostLoop
)

// Dimension constructors.
var (
	Dim1 = kir.Dim1
	Dim2 = kir.Dim2
)

// Prime variables of the index DSL.
var (
	Tx  = sym.Tx
	Ty  = sym.Ty
	Bx  = sym.Bx
	By  = sym.By
	BDx = sym.BDx
	BDy = sym.BDy
	GDx = sym.GDx
	GDy = sym.GDy
	M   = sym.M
)

// Expression constructors.
var (
	C    = sym.C
	P    = sym.P
	Sum  = sym.Sum
	Prod = sym.Prod
	Ind  = sym.Ind
	Quot = sym.Quot
	Rem  = sym.Rem
)

// --- analysis ---

// LocalityTable is the compiler's per-access classification (Figure 5).
type LocalityTable = compiler.Table

// LocalityType is an access's Table II classification.
type LocalityType = compiler.LocalityType

// Analyze runs the threadblock-centric static index analysis over a
// workload and returns its locality table.
func Analyze(w *KernelWorkload) *LocalityTable { return compiler.Analyze(w) }

// Classify runs Algorithm 1 on a single index expression.
func Classify(index Expr, is2D bool) compiler.Class { return compiler.Classify(index, is2D) }

// --- simulation ---

// Result is the measurement record of one simulation run.
type Result = stats.Run

// Simulate runs one workload under one policy on one machine: compile,
// plan (LASP), and simulate on the event-driven NUMA-GPU engine.
func Simulate(w *KernelWorkload, sys System, pol Policy) (*Result, error) {
	return core.Simulate(w, sys, pol)
}

// Job names one simulation for a parallel sweep.
type Job = core.Job

// SimulateJob runs one fully-specified job, including its telemetry
// collector.
func SimulateJob(j Job) (*Result, error) {
	return core.SimulateJob(j)
}

// Sweep simulates jobs on a transient worker pool of the given size
// (<=0: GOMAXPROCS), returning results in job order. Each job's
// telemetry collector, if any, sees its run.
func Sweep(jobs []Job, workers int) ([]*Result, error) {
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: workers})
	defer pool.Close()
	return core.Sweep(context.Background(), pool, jobs)
}

// --- experiments ---

// ExperimentOptions configures an experiment run.
type ExperimentOptions = experiments.Options

// ExperimentResult is an experiment's rendered and structured outcome.
type ExperimentResult = experiments.Result

// Experiment regenerates one of the paper's tables or figures by name:
// table1..table4, fig4, fig9, fig10, fig11, hwvalid, summary.
func Experiment(name string, o ExperimentOptions) (*ExperimentResult, error) {
	return experiments.Run(name, o)
}

// ExperimentNames lists the runnable experiments.
func ExperimentNames() []string { return experiments.ExperimentNames() }
