package simsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ladm/internal/core"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

var (
	// ErrQueueFull is the server's answer to an asynchronous submission
	// that finds the bounded queue full — the backpressure signal, served
	// as 503 with Retry-After.
	ErrQueueFull = errors.New("simsvc: job queue full")
	// ErrPoolClosed is returned for submissions after Close.
	ErrPoolClosed = errors.New("simsvc: pool closed")
)

// SimulateFunc executes one job. The default is the full LADM pipeline
// (core.SimulateJobContext); tests substitute fakes.
type SimulateFunc func(ctx context.Context, job core.Job) (*stats.Run, error)

// PoolConfig sizes a worker pool.
type PoolConfig struct {
	// Workers is the number of concurrent simulations (<=0: GOMAXPROCS).
	Workers int
	// QueueDepth is the number of callers waiting for a worker slot at
	// which the pool counts as full (<=0: 4x Workers): the server then
	// turns asynchronous submissions away with ErrQueueFull and /readyz
	// reports not ready. Exec callers past it still wait their turn.
	QueueDepth int
	// Simulate overrides the job executor (nil: the LADM pipeline).
	Simulate SimulateFunc
	// Observer, when set, gives every job submitted without a timeline
	// in its context a standalone wall-clock timeline (queue wait +
	// compute), so CLI campaigns get stage histograms and a service
	// trace without an HTTP edge. Jobs that already carry a timeline
	// (the server's) are marked on that one instead.
	Observer *svcobs.Observer
}

// Pool caps the simulation jobs running at once: each runs on its Exec
// caller's goroutine while it holds one of Workers slots, and callers
// wait for a slot in arrival order. A panicking job fails alone.
type Pool struct {
	simulate SimulateFunc
	metrics  *Metrics
	obs      *svcobs.Observer
	// slots holds the IDs of the idle workers, 0..Workers()-1: Exec
	// takes one for the length of its job, and a timeline records it.
	slots chan int
	// done is closed by the first Close; closeMu serializes Closes.
	done       chan struct{}
	closeMu    sync.Mutex
	queueDepth int
}

// NewPool returns a pool with every worker slot idle. Call Close when done.
func NewPool(cfg PoolConfig) *Pool {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 4 * workers
	}
	sim := cfg.Simulate
	if sim == nil {
		sim = core.SimulateJobContext
	}
	p := &Pool{
		simulate:   sim,
		metrics:    NewMetrics(),
		obs:        cfg.Observer,
		slots:      make(chan int, workers),
		done:       make(chan struct{}),
		queueDepth: depth,
	}
	for id := range workers {
		p.slots <- id
	}
	p.metrics.workers.Store(int64(workers))
	return p
}

// Metrics returns the pool's metrics set.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Workers returns the pool size.
func (p *Pool) Workers() int { return cap(p.slots) }

// QueueCap returns the configured queue depth (for saturation views).
func (p *Pool) QueueCap() int { return p.queueDepth }

// queueFull reports whether the callers waiting for a worker slot reach
// the queue depth: the admission check behind asynchronous 503s and
// /readyz. It is advisory: a slot may free right after it answers.
func (p *Pool) queueFull() bool {
	return int(p.metrics.depth.Load()) >= p.queueDepth
}

func (p *Pool) closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Close stops the pool: callers still waiting for a slot, and any that
// come later, fail with ErrPoolClosed; jobs already running finish.
// Close returns once they have, and is safe to call more than once.
func (p *Pool) Close() {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if !p.closed() {
		close(p.done)
	}
	// Taking every slot waits out the running jobs; putting them back
	// lets a later Close return too.
	for range cap(p.slots) {
		<-p.slots
	}
	for id := range cap(p.slots) {
		p.slots <- id
	}
}

// Exec waits for a worker slot and runs the job on the caller's
// goroutine. A caller that cancels ctx while waiting gives the job up
// (never run, counted canceled); a running job sees the canceled ctx.
func (p *Pool) Exec(ctx context.Context, job core.Job) (*stats.Run, error) {
	if p.closed() {
		return nil, ErrPoolClosed
	}
	tl, ownTL := p.timeline(ctx, job)
	tl.Mark(svcobs.StageQueue)
	p.metrics.submitted.Add(1)
	p.metrics.depth.Add(1)
	id, err := p.acquire(ctx)
	p.metrics.depth.Add(-1)
	var run *stats.Run
	if err == nil {
		// The slot goes back last, after the timeline is finished.
		defer func() { p.slots <- id }()
		run, err = p.run(ctx, job, tl, id)
	} else if !errors.Is(err, ErrPoolClosed) {
		p.metrics.canceled.Add(1)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		p.metrics.timeouts.Add(1)
	}
	// A pool-created timeline ends with the job; a context timeline (the
	// server's) keeps running through spill and respond.
	if ownTL {
		if run != nil {
			tl.SetTier(run.Tier)
		}
		tl.Finish()
	}
	return run, err
}

// acquire waits for an idle worker slot and returns its ID, or fails
// with ErrPoolClosed or ctx's error. A slot won in a race with either
// goes straight back, so no job starts after Close or cancellation.
func (p *Pool) acquire(ctx context.Context) (int, error) {
	select {
	case id := <-p.slots:
		err := ctx.Err()
		if p.closed() {
			err = ErrPoolClosed
		}
		if err != nil {
			p.slots <- id
		}
		return id, err
	case <-p.done:
		return 0, ErrPoolClosed
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// timeline returns the job's wall-clock timeline: the context's, or a
// pool-owned one (own) when an Observer is configured, else nil.
func (p *Pool) timeline(ctx context.Context, job core.Job) (tl *svcobs.Timeline, own bool) {
	if tl = svcobs.TimelineFrom(ctx); tl != nil || p.obs == nil {
		return tl, false
	}
	name := "job"
	if job.Label != "" {
		name = job.Label
	} else if job.Workload != nil {
		name = job.Workload.Name + "/" + job.Policy.Name
	}
	tl = p.obs.StartTimeline(name, svcobs.RequestIDFrom(ctx))
	tl.SetTrace(svcobs.TraceContextFrom(ctx))
	return tl, true
}

// run executes one job on worker slot id with panic isolation.
func (p *Pool) run(ctx context.Context, job core.Job, tl *svcobs.Timeline, id int) (*stats.Run, error) {
	p.metrics.started.Add(1)
	tl.SetWorker(id)
	tl.Mark(svcobs.StageCompute)
	name := "?"
	if job.Workload != nil {
		name = job.Workload.Name
	}
	log := svcobs.Log(ctx)
	attrs := []any{"workload", name, "policy", job.Policy.Name, "worker", id}
	log.InfoContext(ctx, "simsvc: job executing", attrs...)
	start := time.Now()
	run, err := func() (run *stats.Run, err error) {
		defer func() {
			if r := recover(); r != nil {
				run, err = nil, fmt.Errorf("simsvc: job %s/%s panicked: %v",
					name, job.Policy.Name, r)
			}
		}()
		return p.simulate(ctx, job)
	}()
	wall := time.Since(start)
	if err != nil {
		p.metrics.failed.Add(1)
		p.metrics.jobDone(wall, 0)
		log.ErrorContext(ctx, "simsvc: job failed", append(attrs, "wall", wall, "error", err)...)
	} else {
		p.metrics.completed.Add(1)
		p.metrics.jobDone(wall, run.Cycles)
		log.InfoContext(ctx, "simsvc: job simulated", append(attrs, "wall", wall, "cycles", run.Cycles)...)
	}
	return run, err
}

// Sweep is core.Sweep(ctx, p, jobs): the jobs run through Exec and the
// records come back in job order.
func (p *Pool) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	return core.Sweep(ctx, p, jobs)
}
