// Command ladmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ladmbench -experiment all            # everything, fast scale
//	ladmbench -experiment fig9 -scale 4  # one figure, bigger inputs
//	ladmbench -experiment fig11 -full    # paper-size inputs (slow)
//	ladmbench -experiment fig4 -workloads vecadd,sq-gemm
//	ladmbench -experiment all -store-dir ./results  # resumable campaign
//	ladmbench -experiment fig9 -progress            # per-cell lines on stderr
//	ladmbench -experiment fig10 -fidelity auto      # closed-form tier first
//	ladmbench -experiment tiercheck                 # validate the analytic tier
//	ladmbench -experiment fig9 -service-trace svc.json  # wall-clock worker trace
//	ladmbench -experiment fig4 -remote host:9001,host:9002  # fleet campaign
//	ladmbench -experiment fig4 -remote host:9001 -fault seed=7,error=0.3  # chaos run
//	ladmbench -experiment fig4 -remote a:9001,b:9002 -campaign-trace out.json  # merged fleet trace
//
// Experiments: table1 table2 table3 table4 fig4 fig9 fig10 fig11 hwvalid
// oversub scaling summary tiercheck. Scale divides the paper's input
// sizes; -full forces scale 1.
//
// -fidelity selects the serving tier for every sweep cell: "event" (the
// default — the event engine, unchanged), "auto" (the closed-form
// analytic model answers high-confidence cells and transparently
// escalates the rest), or "analytic" (model-only; any cell outside the
// model's domain fails the campaign). Cached results are keyed per
// fidelity, so analytic answers never masquerade as event measurements.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/experiments"
	"ladm/internal/faultinject"
	"ladm/internal/fleet"
	"ladm/internal/kernels"
	"ladm/internal/simsvc"
	"ladm/internal/svcobs"
)

func main() {
	exp := flag.String("experiment", "summary", "experiment to run, or 'all'")
	scale := flag.Int("scale", 6, "input scale divisor (1 = paper size)")
	full := flag.Bool("full", false, "run paper-size inputs (scale 1)")
	workers := flag.Int("workers", 0, "parallel simulations (0 = all CPUs)")
	workloads := flag.String("workloads", "", "comma-separated workload subset")
	csvPath := flag.String("csv", "", "append structured metric values to a CSV file")
	metrics := flag.Bool("metrics", false, "print pool metrics (Prometheus text) after the run")
	storeDir := flag.String("store-dir", "",
		"durable result store: registry-named cells are served from disk and a killed campaign resumes with only the missing cells")
	storeMax := flag.Int64("store-max-bytes", 0,
		"size cap for the durable store (0 = unlimited)")
	progress := flag.Bool("progress", false,
		"print a per-cell progress line to stderr as sweep cells complete (a cell that shares another cell's run, such as an ladm cell and its CRB twin, prints no line of its own)")
	fidelity := flag.String("fidelity", "event",
		"serving tier for sweep cells: event, analytic (model-only), or auto (model with escalation)")
	serviceTrace := flag.String("service-trace", "",
		"write a wall-clock Chrome/Perfetto trace of the campaign's pool activity (one track per worker, one span per job stage) to this file")
	remote := flag.String("remote", "",
		"comma-separated ladmserve endpoints to dispatch cells to (retries, "+
			"circuit breaking; cells degrade to local execution when no remote can serve them, "+
			"so results stay byte-identical to a local run)")
	fault := flag.String("fault", "",
		"deterministic fault injection on the remote transport, e.g. "+
			"\"seed=7,error=0.3,reset=0.1,partial=0.1,latency=0.2:50ms\" (requires -remote)")
	campaignTrace := flag.String("campaign-trace", "",
		"write the campaign's merged distributed trace — client dispatch spans, "+
			"per-endpoint attempt spans, and every worker's stitched stage "+
			"spans — to this Chrome/Perfetto file (requires -remote)")
	flag.Parse()

	// With -service-trace the pool opens a wall-clock timeline per job;
	// the spans land on per-worker tracks in the trace written at exit.
	// -campaign-trace shares the same observer: the fleet dispatcher adds
	// its client/endpoint tracks and stitched worker spans to it.
	var obs *svcobs.Observer
	if *serviceTrace != "" || *campaignTrace != "" {
		obs = svcobs.NewObserver(nil)
	}

	// One pool serves every experiment of the campaign, so queueing,
	// backpressure and the metrics below span the whole run.
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: *workers, Observer: obs})
	defer pool.Close()

	o := experiments.Options{Scale: *scale, Workers: *workers, Runner: pool}
	if *full {
		o.Scale = 1
	}

	// cacheFidelity separates cached/stored cells by serving tier; ""
	// keeps the default event tier on the existing v2 keys.
	var cacheFidelity string
	switch *fidelity {
	case "", simsvc.FidelityEvent:
	case simsvc.FidelityAnalytic, simsvc.FidelityAuto:
		cacheFidelity = *fidelity
		tr := &analytic.Runner{Scale: o.Scale, OnDecision: pool.Metrics().ObserveTierDecision}
		if *fidelity == simsvc.FidelityAuto {
			tr.Fallback = pool
		}
		o.Runner = tr
	default:
		fmt.Fprintf(os.Stderr, "ladmbench: unknown fidelity %q (valid: event, analytic, auto)\n", *fidelity)
		os.Exit(1)
	}

	// -remote inserts the fleet dispatcher above the (possibly
	// tier-wrapped) local runner: remote-served cells come back
	// byte-identical, and any remote failure degrades the cell onto
	// exactly the runner it would have used without -remote — so the
	// campaign's records never depend on fleet weather. The cache/store
	// layer wraps the fleet, so cached cells are never sent anywhere.
	var fl *fleet.Runner
	var injector *faultinject.Injector
	if *fault != "" && *remote == "" {
		fmt.Fprintln(os.Stderr, "ladmbench: -fault requires -remote")
		os.Exit(1)
	}
	if *campaignTrace != "" && *remote == "" {
		fmt.Fprintln(os.Stderr, "ladmbench: -campaign-trace requires -remote")
		os.Exit(1)
	}
	if *remote != "" {
		client := &http.Client{}
		if *fault != "" {
			spec, err := faultinject.ParseSpec(*fault)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ladmbench:", err)
				os.Exit(1)
			}
			injector = faultinject.New(spec)
			client.Transport = &faultinject.Transport{Injector: injector}
		}
		// The campaign root is the trace every dispatched cell hangs
		// from: one trace ID for the whole ladmbench invocation.
		var root svcobs.TraceContext
		if *campaignTrace != "" {
			root = svcobs.NewTraceContext()
			fmt.Fprintf(os.Stderr, "ladmbench: campaign trace id %s\n", root.TraceID)
		}
		var err error
		fl, err = fleet.New(fleet.Config{
			Endpoints: strings.Split(*remote, ","),
			Local:     o.Runner,
			Scale:     o.Scale,
			Fidelity:  cacheFidelity,
			Client:    client,
			Log:       svcobs.NewLogger(os.Stderr, slog.LevelWarn, false),
			Observer:  obs,
			Trace:     root,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladmbench:", err)
			os.Exit(1)
		}
		o.Runner = fl
	}

	var store *simsvc.DiskStore
	if *storeDir != "" {
		var err error
		store, err = simsvc.NewDiskStore(*storeDir, *storeMax, "ladmbench",
			func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "ladmbench: "+format+"\n", args...)
			})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladmbench: result store unavailable, running store-less: %v\n", err)
		} else {
			cache := simsvc.NewCache(pool.Metrics())
			cache.SetStore(store)
			o.Runner = &simsvc.CachedRunner{
				Inner: o.Runner, Cache: cache, Scale: o.Scale,
				Fidelity: cacheFidelity,
			}
			st := store.Store.Stats()
			fmt.Fprintf(os.Stderr, "ladmbench: result store %s: %d records, %d bytes\n",
				*storeDir, st.Records, st.Bytes)
		}
	}
	if *progress {
		// Progress rides the cache-aware runner's per-cell completion hook;
		// without -store-dir a memory-only cache provides the same path.
		cr, ok := o.Runner.(*simsvc.CachedRunner)
		if !ok {
			cr = &simsvc.CachedRunner{
				Inner: o.Runner, Cache: simsvc.NewCache(pool.Metrics()), Scale: o.Scale,
				Fidelity: cacheFidelity,
			}
			o.Runner = cr
		}
		// One counter numbers the cells across the whole campaign; the
		// lock keeps the numbers and the lines in the same order.
		var mu sync.Mutex
		done := 0
		cr.Progress = func(cell string, cached bool) {
			src := "simulated"
			if cached {
				src = "cached"
			}
			mu.Lock()
			defer mu.Unlock()
			done++
			fmt.Fprintf(os.Stderr, "ladmbench: [%d] %s (%s)\n", done, cell, src)
		}
	}
	if *workloads != "" {
		o.Workloads = strings.Split(*workloads, ",")
		// Validate up front: some experiments (fig11, oversub, scaling)
		// pin their own workload set and would silently ignore a typo.
		for _, name := range o.Workloads {
			if _, err := kernels.ByName(name, o.Scale); err != nil {
				fmt.Fprintf(os.Stderr, "ladmbench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.ExperimentNames()
	}
	for _, name := range names {
		start := time.Now()
		res, err := experiments.Run(name, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(res.Text)
		fmt.Printf("[%s completed in %s at scale 1/%d]\n\n", name, time.Since(start).Round(time.Millisecond), o.Scale)
		if *csvPath != "" {
			if err := appendCSV(*csvPath, res, o.Scale); err != nil {
				fmt.Fprintf(os.Stderr, "ladmbench: csv: %v\n", err)
				os.Exit(1)
			}
		}
	}
	// Flush pending write-backs so every completed cell survives into the
	// next invocation.
	if store != nil {
		store.Close()
	}
	if *metrics {
		pool.Metrics().WriteProm(os.Stdout)
		store.Registry().WriteProm(os.Stdout)
		if fl != nil {
			fl.WriteProm(os.Stdout)
		}
	}
	if injector != nil {
		fmt.Fprintf(os.Stderr, "ladmbench: injected faults: %s\n", injector.Summary())
	}
	// Both trace flags drain the same tracer: -service-trace is the local
	// pool view, -campaign-trace the merged fleet view (they coincide
	// when both are set, which is fine — one campaign, one trace).
	writeTrace := func(path, what string) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladmbench: %s: %v\n", what, err)
			os.Exit(1)
		}
		obs.Tracer.WriteTrace(f)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "ladmbench: %s: %v\n", what, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ladmbench: %s: %d events -> %s\n",
			what, obs.Tracer.Len(), path)
	}
	if *serviceTrace != "" {
		writeTrace(*serviceTrace, "service trace")
	}
	if *campaignTrace != "" {
		writeTrace(*campaignTrace, "campaign trace")
	}
}

// appendCSV writes the experiment's structured values as
// experiment,scale,metric,value rows.
func appendCSV(path string, res *experiments.Result, scale int) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	keys := make([]string, 0, len(res.Values))
	for k := range res.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := w.Write([]string{res.Name, fmt.Sprintf("%d", scale), k,
			fmt.Sprintf("%g", res.Values[k])}); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}
