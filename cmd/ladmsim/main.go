// Command ladmsim simulates one workload under one policy on one machine
// and prints the full measurement record — the single-run probe next to
// ladmbench's sweeps.
//
// Usage:
//
//	ladmsim -workload sq-gemm -policy ladm
//	ladmsim -workload pagerank -policy h-coda -arch monolithic -scale 4
//	ladmsim -workload vecadd -json
//	ladmsim -workload sq-gemm -series util.csv -trace trace.json
//	ladmsim -workload sq-gemm -tier analytic
//	ladmsim -list
//
// -tier selects the serving fidelity: "event" (default — the cycle-level
// event engine), "analytic" (the closed-form locality model only; a job
// outside the model's domain is an error), or "auto" (the model answers
// high-confidence jobs and escalates the rest to the event engine). The
// record names the tier that served it.
//
// Observability: -series FILE emits a simulated-time utilization/queue
// series (CSV by extension, else JSON), -trace FILE emits a Chrome
// trace of threadblock lifetimes (open in chrome://tracing or
// Perfetto), -telemetry prints the run's telemetry summary, and
// -sample N sets the sampling interval in cycles. When sampling and
// tracing are both enabled, the trace additionally carries counter
// tracks (fabric/DRAM utilization, MSHR occupancy, scheduler queue
// depths, batch progress) that Perfetto renders under the TB spans.
//
// -steal enables experimental cross-node TB work stealing; steal counts
// appear in the telemetry summary.
//
// Machines: hier (Table III), hier-perlink (per-hop ring links),
// monolithic, xbar-90, xbar-180, xbar-360, ring-1400, ring-2800, dgx.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ladm/internal/analytic"
	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

func main() {
	workload := flag.String("workload", "vecadd", "workload name")
	policy := flag.String("policy", "ladm", "management policy")
	machineName := flag.String("arch", "hier", "machine configuration")
	scale := flag.Int("scale", 6, "input scale divisor (1 = paper size)")
	jsonOut := flag.Bool("json", false, "print the full measurement record as JSON")
	list := flag.Bool("list", false, "list workloads and policies")
	traceOut := flag.String("trace", "", "write a Chrome trace of TB lifetimes to this file")
	traceTx := flag.Bool("trace-tx", false, "also trace individual memory transactions (large)")
	seriesOut := flag.String("series", "", "write the simulated-time telemetry series to this file (.csv = CSV, else JSON)")
	sample := flag.Float64("sample", simtel.DefaultSampleEvery, "telemetry sampling interval in cycles")
	telemetry := flag.Bool("telemetry", false, "sample the run and print its telemetry summary")
	steal := flag.Bool("steal", false, "let idle nodes steal queued TBs from the deepest queue (experimental)")
	tier := flag.String("tier", "event",
		"serving tier: event, analytic (closed-form model only), or auto (model with escalation)")
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(kernels.Names(), " "))
		fmt.Println("policies: ", strings.Join(rt.Names(), " "))
		fmt.Println("machines: ", strings.Join(arch.Names(), " "))
		return
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ladmsim:", err)
		os.Exit(1)
	}
	spec, err := kernels.ByName(*workload, *scale)
	if err != nil {
		fail(err)
	}
	pol, err := rt.ByName(*policy)
	if err != nil {
		fail(err)
	}
	cfg, err := arch.ByName(*machineName)
	if err != nil {
		fail(err)
	}
	if *steal {
		pol.StealTBs = true
	}

	telCfg := simtel.Config{
		Trace:   *traceOut != "",
		TraceTx: *traceTx,
	}
	if *seriesOut != "" || *telemetry {
		telCfg.SampleEvery = *sample
	}
	tel := simtel.New(telCfg) // nil when nothing is enabled

	job := core.Job{Workload: spec.W, Arch: cfg, Policy: pol, Tel: tel}
	var run *stats.Run
	switch *tier {
	case "", simsvc.FidelityEvent:
		run, err = core.SimulateJob(job)
	case simsvc.FidelityAnalytic, simsvc.FidelityAuto:
		tr := &analytic.Runner{Scale: *scale}
		if *tier == simsvc.FidelityAuto {
			// Escalated jobs run on the in-process event engine.
			tr.Fallback = core.RunFunc(core.SimulateJobContext)
		}
		run, err = tr.Exec(context.Background(), job)
	default:
		err = fmt.Errorf("unknown tier %q (valid: event, analytic, auto)", *tier)
	}
	if err != nil {
		fail(err)
	}

	writeOut := func(path string, write func(io.Writer) error) {
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		if err := write(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *traceOut != "" {
		writeOut(*traceOut, tel.WriteTrace)
	}
	if *seriesOut != "" {
		series := tel.Series()
		if strings.HasSuffix(*seriesOut, ".csv") {
			writeOut(*seriesOut, series.WriteCSV)
		} else {
			writeOut(*seriesOut, series.WriteJSON)
		}
	}

	if *jsonOut {
		// The same schema ladmserve returns: the raw record plus derived
		// headline metrics.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(simsvc.NewRunPayload(run)); err != nil {
			fail(err)
		}
		return
	}

	fmt.Printf("%s on %s under %s (scale 1/%d)\n", run.Workload, run.Arch, run.Policy, *scale)
	if run.Tier != "" {
		fmt.Printf("served by the %s tier (confidence: %s)\n", run.Tier, run.Confidence)
	}
	fmt.Println()
	rows := [][]string{
		{"cycles", stats.Fmt(run.Cycles)},
		{"threadblocks", fmt.Sprintf("%d", run.TBs)},
		{"warp instructions", fmt.Sprintf("%d", run.WarpInstrs)},
		{"L1 hit rate", stats.Pct(run.L1HitRate())},
		{"L2 MPKI", stats.Fmt(run.MPKI())},
		{"off-node traffic", stats.Pct(run.OffNodeFraction())},
		{"inter-chiplet bytes", fmt.Sprintf("%d", run.InterChipletBytes)},
		{"inter-GPU bytes", fmt.Sprintf("%d", run.InterGPUBytes)},
		{"DRAM bytes", fmt.Sprintf("%d", run.DRAMBytes)},
		{"DRAM row hit rate", stats.Pct(run.DRAMRowHitRate)},
		{"page faults", fmt.Sprintf("%d", run.PageFaults)},
		{"host fetches", fmt.Sprintf("%d", run.HostFetches)},
	}
	fmt.Print(stats.Table([]string{"metric", "value"}, rows))

	fmt.Println("\nL2 traffic by category:")
	share := run.L2TrafficShare()
	var cat [][]string
	for c := stats.LocalLocal; c < stats.NumTrafficCats; c++ {
		cat = append(cat, []string{
			c.String(), stats.Pct(share[c]), stats.Pct(run.L2[c].HitRate()),
		})
	}
	fmt.Print(stats.Table([]string{"category", "share", "hit rate"}, cat))

	fmt.Println("\nBusiest resources (cycles, vs total):")
	busy := [][]string{
		{"DRAM channel", stats.Fmt(run.MaxDRAMBusy), stats.Pct(run.MaxDRAMBusy / run.Cycles)},
		{"inter-chiplet ring", stats.Fmt(run.MaxRingBusy), stats.Pct(run.MaxRingBusy / run.Cycles)},
		{"inter-GPU link", stats.Fmt(run.MaxLinkBusy), stats.Pct(run.MaxLinkBusy / run.Cycles)},
		{"L2 service", stats.Fmt(run.MaxL2SrvBusy), stats.Pct(run.MaxL2SrvBusy / run.Cycles)},
		{"SM issue", stats.Fmt(run.MaxIssueBusy), stats.Pct(run.MaxIssueBusy / run.Cycles)},
		{"SM<->L2 xbar", stats.Fmt(run.MaxIntraBusy), stats.Pct(run.MaxIntraBusy / run.Cycles)},
	}
	fmt.Print(stats.Table([]string{"resource", "busy", "utilization"}, busy))

	if t := run.Telemetry; t != nil {
		fmt.Printf("\nTelemetry (%d samples, every %s cycles):\n",
			t.Samples, stats.Fmt(t.SampleInterval))
		sat := "never"
		if t.SaturationCycle >= 0 {
			sat = "cycle " + stats.Fmt(t.SaturationCycle)
		}
		rows := [][]string{
			{"inter-GPU link util (peak/mean)",
				stats.Pct(t.PeakLinkUtil) + " / " + stats.Pct(t.MeanLinkUtil)},
			{"inter-chiplet ring util (peak/mean)",
				stats.Pct(t.PeakRingUtil) + " / " + stats.Pct(t.MeanRingUtil)},
			{"DRAM util (peak)", stats.Pct(t.PeakDRAMUtil)},
			{"MSHR in-flight (peak/mean per SM)",
				fmt.Sprintf("%d / %.2f", t.PeakMSHR, t.MeanMSHR)},
			{"TBs stolen across nodes", fmt.Sprintf("%d", t.TBSteals)},
			{"deepest queue", fmt.Sprintf("%s cycles (%s)",
				stats.Fmt(t.MaxQueueDepth), t.MaxQueueResource)},
			{"fabric saturation onset", sat},
		}
		fmt.Print(stats.Table([]string{"metric", "value"}, rows))
	}
}
