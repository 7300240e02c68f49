// Command ladmserve runs the LADM simulation service: an HTTP front end
// over the internal/simsvc worker pool, result cache and metrics.
//
// Usage:
//
//	ladmserve                      # listen on :8080, GOMAXPROCS workers
//	ladmserve -addr :9000 -workers 4 -queue 64
//	ladmserve -pprof               # also mount /debug/pprof/
//	ladmserve -retain-jobs 1000 -retain-ttl 1h
//	ladmserve -store-dir /var/lib/ladm -store-max-bytes 256000000
//	ladmserve -job-timeout 2m -drain-timeout 30s
//	ladmserve -remote host:9001,host:9002  # front end over worker instances
//
// With -remote, this instance becomes a fleet front end: event-tier
// jobs dispatch to the listed worker instances with retries and
// per-endpoint circuit breaking, degrading transparently to the local
// pool when no remote can serve them. Worker
// instances run WITHOUT -remote (a worker pointing back at its front
// end would bounce jobs in a loop).
//
// Endpoints:
//
//	POST /run      run one simulation
//	               {"workload":"sq-gemm","policy":"ladm","machine":"hier","scale":6}
//	               add "async":true for 202 + a job id to poll,
//	               "telemetry":true for a sampled time series + trace,
//	               "fidelity":"analytic"|"auto" to serve from the
//	               closed-form locality tier (auto escalates jobs outside
//	               the model's domain to the event engine; the record's
//	               tier/confidence fields name who answered)
//	POST /sweep    run a workload x policy x machine cross product
//	               {"workloads":["vecadd"],"policies":["h-coda","ladm"]}
//	               (also takes "fidelity", applied to every cell; with
//	               "async":true it answers 202 and each cell is polled
//	               by its job id)
//	GET  /jobs/{id}
//	GET  /jobs/{id}/telemetry  series/trace of a telemetry job (?view=csv|trace);
//	               also accepts the job's 64-hex content key, which reads the
//	               durable telemetry spill — with -store-dir, telemetry
//	               survives registry eviction and server restarts
//	GET  /jobs/{id}/events     live job lifecycle events (SSE)
//	GET  /metrics  Prometheus text format
//	GET  /healthz  liveness: the process is up and serving HTTP
//	GET  /readyz   readiness: 503 (with reasons) while draining, while the
//	               durable store is degraded, or while the job queue is
//	               saturated — orchestrators and load balancers route on it
//	GET  /statusz  operational snapshot: uptime, pool saturation, queue age,
//	               in-flight jobs with their lifecycle stage, cache/store hit
//	               rates, tier mix, slowest recent jobs (JSON)
//	GET  /fleetz   cluster snapshot (front-end mode): one /statusz per
//	               worker, scraped and merged — queue depths,
//	               cache/store hit rates, tier mix, breaker states and
//	               dispatcher-side attempt latencies (JSON)
//	GET  /debug/servicetrace  wall-clock service trace (Chrome/Perfetto):
//	               one track per pool worker, one span per job stage; in
//	               front-end mode also one track per fleet endpoint with
//	               attempt spans and stitched worker timelines
//	GET  /debug/pprof/  host-side CPU/heap profiles (with -pprof)
//
// Every request carries a correlation ID: the server honors an incoming
// X-Request-ID header (or mints one), echoes it on the response, and
// stamps it on every structured log line the request produces — at the
// edge, in the pool, in the tier oracle and in the store probes. It
// likewise honors (or mints) a W3C traceparent header; in front-end
// mode each remote attempt re-parents the trace, so a worker's stage
// timeline knows exactly which dispatch attempt it served. A caller that
// sent a traceparent gets that timeline back on the synchronous /run
// response as the X-Ladm-Timeline header; a minted trace never goes
// back to the caller.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ladm/internal/fleet"
	"ladm/internal/simsvc"
	"ladm/internal/svcobs"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = all CPUs)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 4x workers)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	retainJobs := flag.Int("retain-jobs", simsvc.DefaultRetainJobs,
		"max finished jobs kept in the registry (0 = unlimited)")
	retainTTL := flag.Duration("retain-ttl", 0,
		"drop finished jobs older than this (0 = no TTL)")
	storeDir := flag.String("store-dir", "",
		"directory for the durable result store (empty = memory-only cache)")
	storeMax := flag.Int64("store-max-bytes", 0,
		"size cap for the durable store; LRU records beyond it are evicted (0 = unlimited)")
	jobTimeout := flag.Duration("job-timeout", 0,
		"per-job execution deadline (0 = unbounded)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"on SIGTERM/SIGINT, wait this long for in-flight requests to finish")
	maxBody := flag.Int64("max-body", simsvc.DefaultMaxBody,
		"request body cap in bytes for POST endpoints")
	logJSON := flag.Bool("log-json", false,
		"emit structured logs as JSON lines (default: logfmt-style text)")
	logDebug := flag.Bool("log-debug", false, "log at debug level")
	remote := flag.String("remote", "",
		"comma-separated ladmserve endpoints to dispatch jobs to (front-end mode: "+
			"event-tier jobs fan out with retries and circuit breaking, and "+
			"degrade to the local pool when no remote can serve them; worker instances "+
			"must run WITHOUT -remote)")
	flag.Parse()

	level := slog.LevelInfo
	if *logDebug {
		level = slog.LevelDebug
	}
	logger := svcobs.NewLogger(os.Stderr, level, *logJSON)
	obs := svcobs.NewObserver(logger)
	logf := func(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }

	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: *workers, QueueDepth: *queue})
	defer pool.Close()
	server := simsvc.NewServer(pool)
	server.SetObserver(obs)
	server.SetRetention(*retainJobs, *retainTTL)
	server.SetJobTimeout(*jobTimeout)
	server.SetMaxBody(*maxBody)

	var store *simsvc.DiskStore
	if *storeDir != "" {
		var err error
		store, err = simsvc.NewDiskStore(*storeDir, *storeMax, "ladmserve", logf)
		if err != nil {
			// Degrade, don't die: a service that cannot persist results is
			// still a working service, just a slower one after restarts.
			logger.Warn("ladmserve: result store unavailable, running store-less", "error", err.Error())
		} else {
			server.SetStore(store)
			st := store.Store.Stats()
			logger.Info("ladmserve: result store attached", "dir", *storeDir,
				"records", st.Records, "bytes", st.Bytes, "healthy", st.Healthy)
		}
	}

	var fl *fleet.Runner
	if *remote != "" {
		var err error
		fl, err = fleet.New(fleet.Config{
			Endpoints: strings.Split(*remote, ","),
			Local:     pool,
			Log:       logger,
			// The process observer turns on the distributed plane: every
			// dispatch attempt becomes a span on /debug/servicetrace, and
			// incoming request traces propagate to the workers as
			// traceparent headers.
			Observer: obs,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ladmserve:", err)
			os.Exit(1)
		}
		server.SetFleet(fl)
		logger.Info("ladmserve: fleet dispatch enabled", "endpoints", *remote)
	}

	root := http.NewServeMux()
	root.Handle("/", server.Handler())
	if *pprofOn {
		// Opt-in: profiles expose host internals, so they stay off the
		// default surface. `go tool pprof http://host:8080/debug/pprof/profile`
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	httpSrv := &http.Server{
		Addr: *addr,
		// The observability middleware owns the edge: request-ID
		// minting/echo, the route/code latency histogram, and one
		// structured access-log line per request.
		Handler:           svcobs.Middleware(obs, simsvc.RouteLabel, root),
		ReadHeaderTimeout: 10 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-stop
		logger.Info("ladmserve: draining before shutdown", "timeout", (*drainTimeout).String())
		// Flip readiness first: orchestrators and load balancers
		// watching /readyz stop sending new jobs while in-flight ones
		// finish.
		server.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Stop accepting, let in-flight requests finish (or hit the drain
		// deadline), then tear down hard so nothing lingers.
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("ladmserve: drain incomplete", "error", err.Error())
			httpSrv.Close()
		}
		close(drained)
	}()

	logger.Info("ladmserve: listening", "addr", *addr, "workers", pool.Workers())
	err := httpSrv.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "ladmserve:", err)
		os.Exit(1)
	}
	if err == http.ErrServerClosed {
		<-drained
	}
	// Flush the store's pending write-backs before exiting: a record the
	// client already saw must survive the restart.
	pool.Close()
	if store != nil {
		store.Close()
	}
	logger.Info("ladmserve: shutdown complete")
}
