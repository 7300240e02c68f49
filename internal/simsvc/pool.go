package simsvc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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
// (core.Simulate); tests substitute fakes.
type SimulateFunc func(ctx context.Context, job core.Job) (*stats.Run, error)

// PoolConfig sizes a worker pool.
type PoolConfig struct {
	// Workers is the number of concurrent simulations (<=0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (<=0: 4x Workers). A full queue makes Exec block and the server
	// turn asynchronous submissions away with ErrQueueFull.
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

// Pool is a fixed-size worker pool executing simulation jobs from a
// bounded queue. A job that panics fails alone; the pool and its other
// jobs keep running.
type Pool struct {
	simulate SimulateFunc
	metrics  *Metrics
	obs      *svcobs.Observer
	queue    chan *task
	done     chan struct{}
	// sending orders queue sends before Close's drain: Exec holds it for
	// reading from its closed-pool check through its send, and Close
	// takes it for writing once done is closed, so no send can land in
	// the queue after the drain.
	sending sync.RWMutex
	wg      sync.WaitGroup
	closing sync.Once
	workers int
}

// task is one submitted job and the channel its Exec waits on.
type task struct {
	Job core.Job

	ctx  context.Context
	done chan struct{}
	run  *stats.Run
	err  error
	// tl is the job's wall-clock timeline (nil when unobserved); ownTL
	// marks a pool-created timeline the task must finish itself.
	tl    *svcobs.Timeline
	ownTL bool
	// taken is claimed once, by the worker (or Close) that pops the task
	// or by its caller abandoning it while queued: the claimant takes
	// the task out of depth, so depth counts only tasks someone waits
	// on. An abandoned task still holds its channel slot until a worker
	// pops and skips it; a send that finds the channel full waits, and
	// counts in depth while it does (see enqueue).
	taken atomic.Bool
}

// NewPool starts the workers and returns the pool. Call Close when done.
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
	m := NewMetrics()
	p := &Pool{
		simulate: sim,
		metrics:  m,
		obs:      cfg.Observer,
		queue:    make(chan *task, depth),
		done:     make(chan struct{}),
		workers:  workers,
	}
	m.workers.Store(int64(workers))
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Metrics returns the pool's metrics set.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// QueueCap returns the bounded queue's capacity (for saturation views).
func (p *Pool) QueueCap() int { return cap(p.queue) }

// queueFull reports whether the live tasks — queued, or waiting for a
// channel slot — fill the queue's capacity: the admission check behind
// asynchronous 503s and /readyz. Abandoned tasks still in the channel
// do not count, but the callers they keep waiting do, so admission
// stays bounded while the worker that would skip them is busy. It is
// advisory: a slot may free or fill right after it answers.
func (p *Pool) queueFull() bool {
	return int(p.metrics.depth.Load()) >= cap(p.queue)
}

// Close stops the workers. Jobs still queued fail with ErrPoolClosed;
// jobs already executing run to completion. Close blocks until every
// worker has exited and is safe to call more than once.
func (p *Pool) Close() {
	p.closing.Do(func() { close(p.done) })
	// Wait out every sender that passed its closed-pool check: after
	// this, nothing new reaches the queue.
	p.sending.Lock()
	p.sending.Unlock()
	p.wg.Wait()
	// Fail whatever is still queued so its waiters unblock.
	for {
		select {
		case t := <-p.queue:
			if t.taken.CompareAndSwap(false, true) {
				p.metrics.depth.Add(-1)
				t.finish(nil, ErrPoolClosed)
			}
		default:
			return
		}
	}
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case t := <-p.queue:
			if t.taken.CompareAndSwap(false, true) {
				p.metrics.depth.Add(-1)
				p.exec(t, id)
			}
		}
	}
}

func (t *task) finish(run *stats.Run, err error) {
	// A pool-created timeline ends with the task; a context timeline
	// (the server's) keeps running through spill and respond.
	if t.ownTL {
		if run != nil {
			t.tl.SetTier(run.Tier)
		}
		t.tl.Finish()
	}
	t.run, t.err = run, err
	close(t.done)
}

// noteQueued attaches the job's wall-clock timeline — the context's, or
// a pool-owned one when an Observer is configured — and opens its
// queue-wait stage. Call just before enqueueing.
func (p *Pool) noteQueued(ctx context.Context, t *task) {
	t.tl = svcobs.TimelineFrom(ctx)
	if t.tl == nil && p.obs != nil {
		name := "job"
		if t.Job.Label != "" {
			name = t.Job.Label
		} else if t.Job.Workload != nil {
			name = t.Job.Workload.Name + "/" + t.Job.Policy.Name
		}
		t.tl = p.obs.StartTimeline(name, svcobs.RequestIDFrom(ctx))
		t.tl.SetTrace(svcobs.TraceContextFrom(ctx))
		t.ownTL = true
	}
	t.tl.Mark(svcobs.StageQueue)
}

// exec runs one task with panic isolation on worker `id`.
func (p *Pool) exec(t *task, id int) {
	if err := t.ctx.Err(); err != nil {
		// Canceled while queued: never start the simulation.
		p.cancelQueued(t, err)
		return
	}
	p.metrics.started.Add(1)
	t.tl.SetWorker(id)
	t.tl.Mark(svcobs.StageCompute)
	name := "?"
	if t.Job.Workload != nil {
		name = t.Job.Workload.Name
	}
	svcobs.Log(t.ctx).InfoContext(t.ctx, "simsvc: job executing",
		"workload", name, "policy", t.Job.Policy.Name, "worker", id)
	start := time.Now()
	run, err := p.runIsolated(t)
	wall := time.Since(start)
	if err != nil {
		p.metrics.failed.Add(1)
		if errors.Is(err, context.DeadlineExceeded) {
			p.metrics.timeouts.Add(1)
		}
		p.metrics.jobDone(wall, 0)
		svcobs.Log(t.ctx).ErrorContext(t.ctx, "simsvc: job failed",
			"workload", name, "policy", t.Job.Policy.Name, "worker", id,
			"wall", wall, "error", err)
	} else {
		p.metrics.completed.Add(1)
		p.metrics.jobDone(wall, run.Cycles)
		svcobs.Log(t.ctx).InfoContext(t.ctx, "simsvc: job simulated",
			"workload", name, "policy", t.Job.Policy.Name, "worker", id,
			"wall", wall, "cycles", run.Cycles)
	}
	t.finish(run, err)
}

// cancelQueued retires a task whose context ended before it started.
// Its claimant calls it: the worker that popped it, or the caller that
// abandoned it, so each is counted once.
func (p *Pool) cancelQueued(t *task, err error) {
	p.metrics.canceled.Add(1)
	if errors.Is(err, context.DeadlineExceeded) {
		p.metrics.timeouts.Add(1)
	}
	t.finish(nil, err)
}

func (p *Pool) runIsolated(t *task) (run *stats.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			name := "?"
			if t.Job.Workload != nil {
				name = t.Job.Workload.Name
			}
			run, err = nil, fmt.Errorf("simsvc: job %s/%s panicked: %v",
				name, t.Job.Policy.Name, r)
		}
	}()
	return p.simulate(t.ctx, t.Job)
}

// Exec enqueues a job — blocking for queue space if necessary — and
// waits for its result. Canceling ctx abandons the job: if it is still
// queued it leaves depth at once and will never run, though its channel
// slot frees only when a worker pops it; if it is running, the
// simulator sees the canceled context.
func (p *Pool) Exec(ctx context.Context, job core.Job) (*stats.Run, error) {
	t := &task{Job: job, ctx: ctx, done: make(chan struct{})}
	if err := p.enqueue(ctx, t); err != nil {
		return nil, err
	}
	select {
	case <-t.done:
		return t.run, t.err
	case <-ctx.Done():
		if t.taken.CompareAndSwap(false, true) {
			// Still queued: the worker that pops it will skip it.
			p.metrics.depth.Add(-1)
			p.cancelQueued(t, ctx.Err())
		}
		return nil, ctx.Err()
	}
}

// enqueue sends t to the workers, blocking for queue space. It holds
// the sending lock from the closed-pool check through the send, so
// Close cannot drain the queue between the two: once the pool is closed
// the send could still succeed (free slots, no workers) and its waiter
// would wait forever. The task counts in depth from before the send,
// so callers blocked on a channel full of abandoned tasks still count
// toward queueFull; a failed send takes it back out.
func (p *Pool) enqueue(ctx context.Context, t *task) error {
	p.sending.RLock()
	defer p.sending.RUnlock()
	select {
	case <-p.done:
		return ErrPoolClosed
	default:
	}
	p.noteQueued(ctx, t)
	p.metrics.depth.Add(1)
	var err error
	select {
	case p.queue <- t:
		p.metrics.submitted.Add(1)
		return nil
	case <-p.done:
		err = ErrPoolClosed
	case <-ctx.Done():
		err = ctx.Err()
	}
	p.metrics.depth.Add(-1)
	if t.ownTL {
		t.tl.Finish()
	}
	return err
}

// Sweep is core.Sweep(ctx, p, jobs): the jobs run through Exec and the
// records come back in job order.
func (p *Pool) Sweep(ctx context.Context, jobs []core.Job) ([]*stats.Run, error) {
	return core.Sweep(ctx, p, jobs)
}
