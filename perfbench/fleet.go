package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/faultinject"
	"ladm/internal/fleet"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// The fleet-sweep cell set: cheap regular (NL/RCL) workloads on every
// registered policy and machine at several scales. It is large enough
// that a run never requests a cell twice, so no cell hits a cache, and
// its workloads have no indirect accesses.
var (
	fleetWorkloads = []string{"sq-gemm", "lstm-1", "lstm-2", "resnet50-fc", "vggnet-fc2", "alexnet-fc2", "vecadd"}
	fleetScales    = []int{64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512}
)

// fleetFaults is the injected network weather: a low error and reset
// rate on POST /run, decided per request by the run's seed.
const (
	fleetErrorRate = 0.02
	fleetResetRate = 0.01
	fleetWorkers   = 2 // ladmserve workers, one pool worker each
	// fleetInFlight is how many cells are dispatched at once. With two
	// in flight the fleet's shared round-robin cursor sends both to one
	// worker at a timing-dependent rate, where the second queues behind
	// the first; per-cell latency then splits into a queued and an
	// unqueued mode and its median flips between them from run to run.
	// One in flight measures the dispatch path itself.
	fleetInFlight = 1
)

var fleetDef = &workloadDef{
	name:     "fleet-sweep",
	why:      "fleet.Runner sends distinct cheap regular cells to two loopback workers through injected faults: per-cell dispatch cost, no cache hits, no indirect accesses",
	minUnits: 200,
	inputs:   fleetInputs,
	setup:    fleetSetup,
	pin:      fleetPin,
}

type fleetInput struct {
	reqs  []simsvc.Request
	ids   []string
	order []int // request index of each unit: a seeded permutation
}

func fleetRequests() []simsvc.Request {
	var out []simsvc.Request
	for _, sc := range fleetScales {
		for _, w := range fleetWorkloads {
			for _, p := range rt.Names() {
				for _, m := range arch.Names() {
					out = append(out, simsvc.Request{Workload: w, Policy: p, Machine: m, Scale: sc}.Normalize())
				}
			}
		}
	}
	return out
}

func fleetInputs(cfg *config) (any, func(), error) {
	reqs := fleetRequests()
	in := &fleetInput{reqs: reqs, order: permutation(cfg.seed, len(reqs))}
	for _, r := range reqs {
		in.ids = append(in.ids, requestID(r))
	}
	return in, func() {}, nil
}

type fleetInstance struct {
	cfg     *config
	in      *fleetInput
	jobs    []core.Job // in.reqs resolved, as a campaign hands them to Sweep
	workers []*service
	local   *simsvc.Pool
	fl      *fleet.Runner
	inj     *faultinject.Injector
	plain   *http.Client // unfaulted client for scrapes
	tr      *tracer

	last     scrapeDelta
	lastFl   [2]promText
	injected int64
}

// faultRunOnly routes POST /run through the fault injector and every
// other call (the fleet's /readyz health probes) around it: a faulted
// probe would sideline a healthy worker for a whole health interval,
// which is noise the dispatch path under test never sees.
type faultRunOnly struct {
	faulted, plain http.RoundTripper
}

func (f faultRunOnly) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/run" {
		return f.faulted.RoundTrip(r)
	}
	return f.plain.RoundTrip(r)
}

func fleetSetup(cfg *config, inAny any, hooks *simHooks) (instance, error) {
	in := inAny.(*fleetInput)
	f := &fleetInstance{cfg: cfg, in: in, tr: hooks.tr, jobs: make([]core.Job, len(in.reqs))}
	for i, r := range in.reqs {
		job, err := r.Resolve()
		if err != nil {
			return nil, fmt.Errorf("resolving %s: %w", in.ids[i], err)
		}
		f.jobs[i] = job
	}
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		w, err := startService(1, nil, hooks)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		urls = append(urls, w.url)
	}
	f.local = simsvc.NewPool(simsvc.PoolConfig{Workers: 1, Simulate: hooks.simulate})
	f.inj = faultinject.New(faultinject.Spec{Seed: int64(cfg.seed), Error: fleetErrorRate, Reset: fleetResetRate})
	var base *http.Transport
	f.plain, base = newClient(cfg.nproc)
	client := &http.Client{Transport: faultRunOnly{
		faulted: &faultinject.Transport{Injector: f.inj, Inner: base},
		plain:   base,
	}}
	fl, err := fleet.New(fleet.Config{
		Endpoints: urls,
		Local:     f.local,
		Client:    client,
		Log:       svcobs.NewLogger(io.Discard, slog.LevelWarn, false),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.fl = fl
	return f, nil
}

func (f *fleetInstance) scrapeAll() ([]promText, promText, error) {
	var ws []promText
	for _, w := range f.workers {
		t, err := w.scrape(f.plain)
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, t)
	}
	var b bytes.Buffer
	f.fl.WriteProm(&b)
	return ws, parseProm(b.String()), nil
}

func (f *fleetInstance) run(stop func(int) bool, m *meter) *phase {
	p := &phase{}
	wBefore, flBefore, err := f.scrapeAll()
	if err != nil {
		p.fail("%v", err)
	}
	injBefore := f.inj.Injected()
	limit := len(f.in.order)
	tk := &tickets{stop: func(i int) bool { return i >= limit || stop(i) }}
	// Records are checked as they arrive and dropped, except the prefix
	// the sim.* totals cover, so the benchmark's own memory stays flat.
	type outcome struct {
		lat    float64
		err    error
		instrs uint64
		run    *stats.Run // kept for the first minUnits cells only
	}
	outs := make([]outcome, limit)
	stopMeter := m.every(time.Second)
	var wg sync.WaitGroup
	for c := 0; c < fleetInFlight; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := "dispatch-" + strconv.Itoa(c)
			for {
				i, ok := tk.take()
				if !ok {
					return
				}
				k := f.in.order[i]
				run, lat, err := f.dispatch(f.in.reqs[k], f.jobs[k], track)
				if err == nil {
					err = f.cfg.pins.check(f.in.ids[k], run)
				}
				o := outcome{lat: lat, err: err}
				if err == nil {
					o.instrs = run.WarpInstrs
					if i < fleetDef.minUnits {
						o.run = run
					}
				}
				outs[i] = o
				m.add(1)
			}
		}(c)
	}
	wg.Wait()
	stopMeter()
	p.units = tk.issued()
	if p.units == limit {
		// Repeating a cell would turn it into a cache hit, so the run ends
		// with the cell set; its rates still hold over the shorter phase.
		p.notes = append(p.notes, fmt.Sprintf("cell set exhausted after %d cells; the phase ended early", limit))
	}
	for i, o := range outs[:p.units] {
		p.ops++
		p.lat = append(p.lat, o.lat)
		if o.err != nil {
			p.fail("%s: %v", f.in.ids[f.in.order[i]], o.err)
			continue
		}
		p.delivered += o.instrs
		if o.run != nil {
			p.sim.add(o.run)
		}
	}
	wAfter, flAfter, err := f.scrapeAll()
	if err != nil {
		p.fail("%v", err)
	}
	f.last = scrapeDelta{before: wBefore, after: wAfter}
	f.lastFl = [2]promText{flBefore, flAfter}
	f.injected = f.inj.Injected() - injBefore
	return p
}

// dispatch serves one cell through the fleet, the per-job path
// fleet.Runner.Sweep takes for every registry-named job.
func (f *fleetInstance) dispatch(req simsvc.Request, job core.Job, track string) (*stats.Run, float64, error) {
	ctx := context.Background()
	id := f.tr.newID()
	if id != "" {
		ctx = svcobs.WithRequestID(ctx, id)
	}
	t0 := time.Now()
	run, err := f.fl.ExecRequest(ctx, req, job)
	elapsed := time.Since(t0)
	f.tr.add(span{Name: "fleet.ExecRequest", Cat: "dispatch", Track: track, ID: id, Start: t0, Dur: elapsed})
	return run, float64(elapsed.Nanoseconds()) / 1e6, err
}

func (f *fleetInstance) layers(p *phase) map[string]float64 {
	fd := scrapeDelta{before: []promText{f.lastFl[0]}, after: []promText{f.lastFl[1]}}
	attempts := fd.sum("fleet_attempts_total", nil)
	attemptMs := 1000 * safeDiv(fd.sum("fleet_attempt_seconds_sum", nil), fd.sum("fleet_attempt_seconds_count", nil))
	m := serviceMetrics(f.last, attemptMs)
	m["fleet.attempts"] = attempts
	m["fleet.retries"] = fd.sum("fleet_retries_total", nil)
	m["fleet.hedges"] = fd.sum("fleet_hedges_total", nil)
	m["fleet.degraded"] = fd.sum("fleet_degraded_jobs_total", nil)
	m["fault.injected"] = float64(f.injected)
	m["fleet.useful_ratio"] = safeDiv(fd.sum("fleet_remote_jobs_total", nil), attempts)
	m["fleet.attempt_ms_mean"] = attemptMs
	workerS := 0.0
	for _, s := range stages {
		workerS += m["stage."+s+".s"]
	}
	dispatchMs := 0.0
	for _, v := range p.lat {
		dispatchMs += v
	}
	m["fleet.overhead_ms_per_cell"] = safeDiv(dispatchMs-1000*workerS, float64(len(p.lat)))
	return m
}

// warm is a no-op: the workers start fresh, as a campaign's workers
// would, and a run hands each far fewer jobs than the registry bound at
// which serve-zipf measures eviction.
func (f *fleetInstance) warm() error { return nil }

func (f *fleetInstance) close() {
	if f.fl != nil {
		f.fl.Close()
	}
	for _, w := range f.workers {
		w.close()
	}
	if f.local != nil {
		f.local.Close()
	}
	if f.plain != nil {
		f.plain.CloseIdleConnections()
	}
}

// fleetPin computes every cell of the set on a local pool: fleet
// records must be byte-identical to local ones.
func fleetPin(cfg *config) (pinSet, error) {
	reqs := fleetRequests()
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: cfg.nproc})
	defer pool.Close()
	p := pinSet{}
	const batch = 256
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		jobs := make([]core.Job, 0, hi-lo)
		for _, r := range reqs[lo:hi] {
			job, err := r.Resolve()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, job)
		}
		runs, err := pool.Sweep(context.Background(), jobs)
		if err != nil {
			return nil, err
		}
		for k, run := range runs {
			d, err := digest(run)
			if err != nil {
				return nil, err
			}
			p.put(requestID(reqs[lo+k]), d)
		}
	}
	if len(p) != len(reqs) {
		return nil, fmt.Errorf("pinned %d of %d cells", len(p), len(reqs))
	}
	return p, nil
}
