package simsvc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/stats"
)

// fakeSim builds a SimulateFunc that counts invocations and returns a
// synthetic record derived from the job label.
func fakeSim(calls *atomic.Int64) SimulateFunc {
	return func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: j.Label, Cycles: 100}, nil
	}
}

func labeled(label string) core.Job { return core.Job{Label: label} }

func TestPoolExecutesJobs(t *testing.T) {
	var calls atomic.Int64
	p := NewPool(PoolConfig{Workers: 2, Simulate: fakeSim(&calls)})
	defer p.Close()

	run, err := p.Exec(context.Background(), labeled("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Exec returns the canonical record: labels are core.Sweep's to apply.
	if run.Workload != "a" || run.Policy != "" {
		t.Errorf("run = %+v", run)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d", calls.Load())
	}
	m := p.Metrics()
	if m.submitted.Load() != 1 || m.started.Load() != 1 || m.completed.Load() != 1 || m.failed.Load() != 0 {
		t.Errorf("submitted/started/completed/failed = %d/%d/%d/%d, want 1/1/1/0",
			m.submitted.Load(), m.started.Load(), m.completed.Load(), m.failed.Load())
	}
}

func TestSweepPreservesOrder(t *testing.T) {
	var calls atomic.Int64
	p := NewPool(PoolConfig{Workers: 4, Simulate: fakeSim(&calls)})
	defer p.Close()

	jobs := make([]core.Job, 20)
	for i := range jobs {
		jobs[i] = labeled(fmt.Sprintf("j%02d", i))
	}
	runs, err := core.Sweep(context.Background(), p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs {
		if want := fmt.Sprintf("j%02d", i); r.Workload != want {
			t.Errorf("runs[%d] = %q, want %q", i, r.Workload, want)
		}
	}
	if calls.Load() != 20 {
		t.Errorf("calls = %d", calls.Load())
	}
}

// blockingSim returns a simulator that signals on started and blocks
// until release is closed.
func blockingSim(calls *atomic.Int64, started chan<- string, release <-chan struct{}) SimulateFunc {
	return func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		started <- j.Label
		<-release
		return &stats.Run{Workload: j.Label}, nil
	}
}

func TestCancellationMidQueue(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 8,
		Simulate: blockingSim(&calls, started, release)})
	defer p.Close()

	// Occupy the single worker.
	blocker := make(chan error, 1)
	go func() {
		_, err := p.Exec(context.Background(), labeled("blocker"))
		blocker <- err
	}()
	<-started

	// Queue three jobs behind it, then cancel them while queued.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := p.Exec(ctx, labeled(fmt.Sprintf("q%d", i)))
			queued <- err
		}(i)
	}
	waitFor(t, func() bool { return p.Metrics().depth.Load() == 3 })
	cancel()
	for i := 0; i < 3; i++ {
		if err := <-queued; !errors.Is(err, context.Canceled) {
			t.Errorf("queued job err = %v, want context.Canceled", err)
		}
	}
	close(release)

	if err := <-blocker; err != nil {
		t.Errorf("blocker: %v", err)
	}
	// The worker skips the canceled jobs without simulating them.
	m := p.Metrics()
	waitFor(t, func() bool { return m.canceled.Load() == 3 })
	if calls.Load() != 1 || m.started.Load() != 1 {
		t.Errorf("simulate calls/started = %d/%d, want 1/1", calls.Load(), m.started.Load())
	}
}

// TestCanceledCallersFreeQueueSlots: callers that cancel while queued
// give their slots back at once, so with the worker still busy the pool
// neither reports itself full nor counts them in its depth, and each is
// counted canceled exactly once, including after the worker drains.
func TestCanceledCallersFreeQueueSlots(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 3,
		Simulate: blockingSim(&calls, started, release)})
	defer p.Close()

	blocker := make(chan error, 1)
	go func() {
		_, err := p.Exec(context.Background(), labeled("blocker"))
		blocker <- err
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := p.Exec(ctx, labeled(fmt.Sprintf("q%d", i)))
			queued <- err
		}(i)
	}
	m := p.Metrics()
	waitFor(t, p.queueFull)
	cancel()
	for i := 0; i < 3; i++ {
		if err := <-queued; !errors.Is(err, context.Canceled) {
			t.Errorf("queued job err = %v, want context.Canceled", err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for p.queueFull() || m.depth.Load() != 0 {
		if time.Now().After(deadline) {
			t.Errorf("worker still busy: queueFull = %v, depth = %d, want false, 0",
				p.queueFull(), m.depth.Load())
			break
		}
		time.Sleep(time.Millisecond)
	}
	if c := m.canceled.Load(); c != 3 {
		t.Errorf("canceled = %d while the worker is busy, want 3", c)
	}

	close(release)
	if err := <-blocker; err != nil {
		t.Errorf("blocker: %v", err)
	}
	// Later jobs neither run nor recount the abandoned ones.
	if _, err := p.Exec(context.Background(), labeled("after")); err != nil {
		t.Fatal(err)
	}
	if c, d := m.canceled.Load(), m.depth.Load(); c != 3 || d != 0 {
		t.Errorf("after drain: canceled = %d, depth = %d, want 3, 0", c, d)
	}
	if calls.Load() != 2 {
		t.Errorf("simulate calls = %d, want 2", calls.Load())
	}
}

// TestPoolCountersBalance: after a mix of completions, a failure, a
// panic and callers canceled while waiting — more of them than
// QueueDepth — no job is left in depth and every submitted job either
// started or was canceled.
func TestPoolCountersBalance(t *testing.T) {
	const queueDepth, waiters = 2, 5
	started := make(chan string, 1)
	release := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: queueDepth,
		Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
			switch j.Label {
			case "blocker":
				started <- j.Label
				<-release
			case "fail":
				return nil, errors.New("synthetic failure")
			case "boom":
				panic("kaboom")
			}
			return &stats.Run{Workload: j.Label}, nil
		}})
	defer p.Close()
	m := p.Metrics()

	blocker := make(chan error, 1)
	go func() {
		_, err := p.Exec(context.Background(), labeled("blocker"))
		blocker <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			_, err := p.Exec(ctx, labeled(fmt.Sprintf("q%d", i)))
			queued <- err
		}(i)
	}
	waitFor(t, func() bool { return m.depth.Load() == waiters })
	cancel()
	for i := 0; i < waiters; i++ {
		if err := <-queued; !errors.Is(err, context.Canceled) {
			t.Errorf("waiting job err = %v, want context.Canceled", err)
		}
	}
	close(release)
	if err := <-blocker; err != nil {
		t.Errorf("blocker: %v", err)
	}
	for _, label := range []string{"ok", "fail", "boom"} {
		_, err := p.Exec(context.Background(), labeled(label))
		if (err == nil) != (label == "ok") {
			t.Errorf("%s: err = %v", label, err)
		}
	}

	sub, st, canc := m.submitted.Load(), m.started.Load(), m.canceled.Load()
	if d := m.depth.Load(); d != 0 {
		t.Errorf("depth = %d after every caller returned, want 0", d)
	}
	if sub != st+canc {
		t.Errorf("submitted %d != started %d + canceled %d", sub, st, canc)
	}
	if st != 4 || canc != waiters || m.completed.Load() != 2 || m.failed.Load() != 2 {
		t.Errorf("started/canceled/completed/failed = %d/%d/%d/%d, want 4/%d/2/2",
			st, canc, m.completed.Load(), m.failed.Load(), waiters)
	}
}

func TestPanicRecovery(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		if j.Label == "boom" {
			panic("kaboom")
		}
		return &stats.Run{Workload: j.Label}, nil
	}})
	defer p.Close()

	if _, err := p.Exec(context.Background(), labeled("boom")); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic err = %v", err)
	}
	// The pool survives: the next job on the same worker still runs.
	run, err := p.Exec(context.Background(), labeled("ok"))
	if err != nil || run.Workload != "ok" {
		t.Errorf("post-panic run = %v, %v", run, err)
	}
	m := p.Metrics()
	if m.failed.Load() != 1 || m.completed.Load() != 1 {
		t.Errorf("failed/completed = %d/%d, want 1/1", m.failed.Load(), m.completed.Load())
	}
}

// TestBackpressureWhenQueueFull: with the worker busy and every slot
// taken, the pool reports itself full (the server's 503 and /readyz
// signal), and Exec on an expired context does not wedge on the queue.
func TestBackpressureWhenQueueFull(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 8)
	release := make(chan struct{})
	p := NewPool(PoolConfig{Workers: 1, QueueDepth: 2,
		Simulate: blockingSim(&calls, started, release)})
	defer p.Close()

	var wg sync.WaitGroup
	exec := func(label string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Exec(context.Background(), labeled(label))
		}()
	}
	exec("blocker")
	<-started // worker busy; queue empty
	if p.queueFull() {
		t.Error("empty queue reported full")
	}
	exec("fill")
	exec("fill")
	waitFor(t, p.queueFull)
	if d := p.Metrics().depth.Load(); d != 2 {
		t.Errorf("queue depth = %d, want 2", d)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Exec(ctx, labeled("late")); !errors.Is(err, context.Canceled) {
		t.Errorf("Exec on full queue = %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
}

func TestSweepFirstError(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		if j.Label == "bad" {
			return nil, errors.New("synthetic failure")
		}
		return &stats.Run{Workload: j.Label}, nil
	}})
	defer p.Close()
	_, err := core.Sweep(context.Background(), p, []core.Job{labeled("a"), labeled("bad"), labeled("c")})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("sweep err = %v", err)
	}
}

func TestSequentialMatchesPool(t *testing.T) {
	var calls atomic.Int64
	sim := fakeSim(&calls)
	jobs := []core.Job{labeled("a"), labeled("b")}
	seq, err := core.Sweep(context.Background(), core.RunFunc(sim), jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Workers: 2, Simulate: sim})
	defer p.Close()
	par, err := core.Sweep(context.Background(), p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Workload != par[i].Workload {
			t.Errorf("order mismatch at %d: %q vs %q", i, seq[i].Workload, par[i].Workload)
		}
	}
}

func TestMetricsRendering(t *testing.T) {
	var calls atomic.Int64
	p := NewPool(PoolConfig{Workers: 1, Simulate: fakeSim(&calls)})
	defer p.Close()
	if _, err := p.Exec(context.Background(), labeled("a")); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	p.Metrics().WriteProm(&b)
	text := b.String()
	for _, want := range []string{
		"simsvc_jobs_submitted_total 1",
		"simsvc_jobs_completed_total 1",
		"simsvc_jobs_failed_total 0",
		"simsvc_queue_depth 0",
		"simsvc_workers 1",
		"simsvc_simulated_cycles_total 100",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	// le="+Inf" is the histogram's mandatory overflow bucket label, not a
	// non-finite sample value.
	finite := func(s string) bool {
		s = strings.ReplaceAll(s, `le="+Inf"`, "")
		return !strings.Contains(s, "NaN") && !strings.Contains(s, "Inf")
	}
	if !finite(text) {
		t.Errorf("metrics contain non-finite values:\n%s", text)
	}
	// An empty metrics set renders finite values too (no 0/0).
	b.Reset()
	NewMetrics().WriteProm(&b)
	if s := b.String(); !finite(s) {
		t.Errorf("empty metrics non-finite:\n%s", s)
	}
}
