package ladm_test

// Benchmarks mirroring the paper's tables and figures, one per experiment,
// at reduced scale so `go test -bench=.` terminates quickly. Each
// benchmark drives the same pipeline the ladmbench harness uses and
// attaches the headline simulated metric (speedup, traffic fraction) as a
// custom benchmark metric, so `-bench` output doubles as a miniature
// reproduction report. Run `cmd/ladmbench` for the full-size sweeps.

import (
	"testing"

	"ladm"
)

// benchScale keeps each simulation in the tens of milliseconds.
const benchScale = 16

func mustWorkload(b *testing.B, name string) *ladm.WorkloadSpec {
	b.Helper()
	spec, err := ladm.Workload(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

func simulate(b *testing.B, w *ladm.KernelWorkload, sys ladm.System, pol ladm.Policy) *ladm.Result {
	b.Helper()
	run, err := ladm.Simulate(w, sys, pol)
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkTable2IndexAnalysis measures the static analyzer itself: the
// full locality-table construction for the Figure 6 GEMM.
func BenchmarkTable2IndexAnalysis(b *testing.B) {
	spec := mustWorkload(b, "sq-gemm")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ladm.Analyze(spec.W)
	}
}

// BenchmarkTable4Characterization runs one workload's characterization
// (analysis + H-CODA simulation), reporting its MPKI.
func BenchmarkTable4Characterization(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "vecadd")
	sys := ladm.TableIIISystem()
	var mpki float64
	for i := 0; i < b.N; i++ {
		run := simulate(b, spec.W, sys, ladm.HCODA())
		mpki = run.MPKI()
	}
	b.ReportMetric(mpki, "L2-MPKI")
}

// BenchmarkFig4BandwidthSensitivity simulates one Figure 4 cell: CODA on
// the 90 GB/s crossbar against the monolithic reference.
func BenchmarkFig4BandwidthSensitivity(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "scalarprod")
	var norm float64
	for i := 0; i < b.N; i++ {
		mono := simulate(b, spec.W, ladm.Monolithic(), ladm.KernelWide())
		coda := simulate(b, spec.W, ladm.FourGPUSwitch(90), ladm.CODA())
		norm = coda.Speedup(mono)
	}
	b.ReportMetric(norm, "perf-vs-monolithic")
}

// BenchmarkFig9 runs the headline comparison (H-CODA vs LADM) for one
// workload per locality group and reports the geomean speedup.
func BenchmarkFig9(b *testing.B) {
	b.ReportAllocs()
	for _, name := range []string{"vecadd", "sq-gemm", "pagerank", "lbm"} {
		spec := mustWorkload(b, name)
		sys := ladm.TableIIISystem()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var speedup float64
			for i := 0; i < b.N; i++ {
				base := simulate(b, spec.W, sys, ladm.HCODA())
				best := simulate(b, spec.W, sys, ladm.LADM())
				speedup = best.Speedup(base)
			}
			b.ReportMetric(speedup, "speedup-vs-hcoda")
		})
	}
}

// BenchmarkFig10OffNodeTraffic reports the off-node traffic fraction under
// LADM for a strided workload.
func BenchmarkFig10OffNodeTraffic(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "scalarprod")
	sys := ladm.TableIIISystem()
	var offnode float64
	for i := 0; i < b.N; i++ {
		run := simulate(b, spec.W, sys, ladm.LADM())
		offnode = run.OffNodeFraction()
	}
	b.ReportMetric(offnode*100, "offnode-%")
}

// BenchmarkFig11RemoteBypass contrasts RONCE and RTWICE on random-loc.
func BenchmarkFig11RemoteBypass(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "random-loc")
	sys := ladm.TableIIISystem()
	var gain float64
	for i := 0; i < b.N; i++ {
		rt := simulate(b, spec.W, sys, ladm.LASPRTwice())
		ro := simulate(b, spec.W, sys, ladm.LASPROnce())
		gain = ro.Speedup(rt)
	}
	b.ReportMetric(gain, "ronce-over-rtwice")
}

// BenchmarkHWValidDGX runs the Section IV-C analogue: LASP vs CODA on the
// DGX-like topology for one ML layer.
func BenchmarkHWValidDGX(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "lstm-2")
	sys := ladm.DGXLike()
	var speedup float64
	for i := 0; i < b.N; i++ {
		coda := simulate(b, spec.W, sys, ladm.CODA())
		lasp := simulate(b, spec.W, sys, ladm.LASPRTwice())
		speedup = lasp.Speedup(coda)
	}
	b.ReportMetric(speedup, "lasp-vs-coda")
}

// --- ablation benches for the design decisions called out in DESIGN.md ---

// BenchmarkAblationBatchSizing contrasts Batch+FT's static batches with
// LASP's Equation 2 dynamic batches on an alignment-sensitive workload.
func BenchmarkAblationBatchSizing(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "vecadd")
	sys := ladm.TableIIISystem()
	var gain float64
	for i := 0; i < b.N; i++ {
		static := simulate(b, spec.W, sys, ladm.BatchFTOptimal())
		dynamic := simulate(b, spec.W, sys, ladm.LADM())
		gain = dynamic.Speedup(static)
	}
	b.ReportMetric(gain, "eq2-over-static")
}

// BenchmarkAblationHierarchy contrasts flat CODA with H-CODA on the
// chiplet hierarchy.
func BenchmarkAblationHierarchy(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "sq-gemm")
	sys := ladm.TableIIISystem()
	var gain float64
	for i := 0; i < b.N; i++ {
		flat := simulate(b, spec.W, sys, ladm.CODA())
		hier := simulate(b, spec.W, sys, ladm.HCODA())
		gain = hier.Speedup(flat)
	}
	b.ReportMetric(gain, "hcoda-over-coda")
}

// BenchmarkAblationCRB contrasts LADM's per-workload CRB against the two
// static insertion policies on an RCL workload (where RONCE hurts).
func BenchmarkAblationCRB(b *testing.B) {
	b.ReportAllocs()
	spec := mustWorkload(b, "sq-gemm")
	sys := ladm.TableIIISystem()
	var crbOverRonce float64
	for i := 0; i < b.N; i++ {
		ronce := simulate(b, spec.W, sys, ladm.LASPROnce())
		crb := simulate(b, spec.W, sys, ladm.LADM())
		crbOverRonce = crb.Speedup(ronce)
	}
	b.ReportMetric(crbOverRonce, "crb-over-ronce")
}

// BenchmarkPipelinePrepare isolates the runtime's planning cost (analysis,
// placement, scheduling) from simulation.
func BenchmarkPipelinePrepare(b *testing.B) {
	spec := mustWorkload(b, "sq-gemm")
	sys := ladm.TableIIISystem()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ladm.Simulate(spec.W, sys, ladm.LADM()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Sweep runs one small Fig. 9 campaign end to end, through
// experiments.Run and a two-worker pool: one workload per locality group
// (ITL, unclassified, RCL, NL), five cells each, of which the ladm cell
// shares its CRB twin's run. It is the speed trajectory's point measured
// through the sweep rather than one cell at a time.
func BenchmarkFig9Sweep(b *testing.B) {
	b.ReportAllocs()
	o := ladm.ExperimentOptions{
		Scale:     64,
		Workers:   2,
		Workloads: []string{"spmv-jds", "b+tree", "fwt-k2", "hotspot3d"},
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := ladm.Experiment("fig9", o)
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Values["geomean/all/ladm"]
	}
	b.ReportMetric(gain, "ladm-vs-hcoda")
}
