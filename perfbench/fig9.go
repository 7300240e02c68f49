package main

import (
	"bytes"
	"time"

	"ladm/internal/experiments"
	"ladm/internal/kernels"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// fig9Scale and fig9Workloads fix the campaign: irregular ITL and
// unclassified cells beside regular RCL and NL ones, so every locality
// group of Fig. 9 is present. The matrix is the paper's; the seed does
// not change it.
const fig9Scale = 256

var fig9Workloads = []string{
	"pagerank", "random-loc", "spmv-jds", "bfs-relax", "lbm", // ITL, unclassified
	"conv", "tra", "fwt-k2", "hotspot3d", "sq-gemm", // RCL, NL
}

var fig9Def = &workloadDef{
	name:     "fig9-campaign",
	why:      "closed batches of the Fig. 9 matrix (ITL, unclassified, RCL, NL cells) over a simsvc.Pool: the event engine does nearly all the work",
	minUnits: 1,
	inputs:   func(*config) (any, func(), error) { return nil, func() {}, nil },
	setup:    fig9Setup,
	pin:      fig9Pin,
}

type fig9Instance struct {
	cfg   *config
	pool  *simsvc.Pool
	obs   *svcobs.Observer
	opts  experiments.Options
	hooks *simHooks
	tr    *tracer
	last  scrapeDelta
}

// fig9Setup builds what `ladmbench -experiment fig9 -workloads ...`
// builds: the workload set and one shared pool with no cache or store.
// A traced instance gives the pool an observer so queue wait and
// compute are timed per job.
func fig9Setup(cfg *config, _ any, hooks *simHooks) (instance, error) {
	for _, name := range fig9Workloads {
		if _, err := kernels.ByName(name, fig9Scale); err != nil {
			return nil, err
		}
	}
	var obs *svcobs.Observer
	if hooks.tr != nil {
		obs = svcobs.NewObserver(nil)
	}
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: cfg.nproc, Simulate: hooks.simulate, Observer: obs})
	return &fig9Instance{
		cfg: cfg, pool: pool, obs: obs, hooks: hooks, tr: hooks.tr,
		opts: experiments.Options{Scale: fig9Scale, Workers: cfg.nproc, Workloads: fig9Workloads, Runner: pool},
	}, nil
}

// fig9Cell names a campaign record by its own fields.
func fig9Cell(r *stats.Run) string { return r.Workload + "/" + r.Policy + "/" + r.Arch }

func (f *fig9Instance) run(stop func(int) bool, m *meter) *phase {
	p := &phase{}
	before := f.scrape()
	for b := 0; !stop(b); b++ {
		id := f.tr.newID()
		start := time.Now()
		res, err := experiments.Run("fig9", f.opts)
		f.tr.add(span{Name: "experiments.Run fig9", Cat: "campaign", Track: "campaign", ID: id,
			Start: start, Dur: time.Since(start)})
		p.units++
		if err != nil {
			cells := len(fig9Workloads) * 5
			p.ops += cells
			p.fail("batch %d: %v", b, err)
			p.failed += cells - 1 // every cell of the batch is missing
			continue
		}
		m.add(len(res.Runs))
		m.mark() // one window per campaign batch
		for _, r := range res.Runs {
			p.ops++
			if err := f.cfg.pins.check(fig9Cell(r), r); err != nil {
				p.fail("%v", err)
				continue
			}
			p.delivered += r.WarpInstrs
			if b == 0 {
				p.sim.add(r)
			}
		}
	}
	f.hooks.mu.Lock()
	p.lat = append(p.lat, f.hooks.cellMs...)
	f.hooks.mu.Unlock()
	f.last = scrapeDelta{before: []promText{before}, after: []promText{f.scrape()}}
	return p
}

func (f *fig9Instance) scrape() promText {
	var b bytes.Buffer
	f.obs.WriteProm(&b) // nil observer writes nothing
	return parseProm(b.String())
}

func (f *fig9Instance) layers(*phase) map[string]float64 { return serviceMetrics(f.last, 0) }

func (f *fig9Instance) warm() error { return nil }

func (f *fig9Instance) close() { f.pool.Close() }

// fig9Pin runs one campaign batch and pins every record it returns.
func fig9Pin(cfg *config) (pinSet, error) {
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: cfg.nproc})
	defer pool.Close()
	res, err := experiments.Run("fig9", experiments.Options{
		Scale: fig9Scale, Workers: cfg.nproc, Workloads: fig9Workloads, Runner: pool})
	if err != nil {
		return nil, err
	}
	p := pinSet{}
	for _, r := range res.Runs {
		d, err := digest(r)
		if err != nil {
			return nil, err
		}
		p.put(fig9Cell(r), d)
	}
	return p, nil
}
