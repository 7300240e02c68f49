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

	"ladm/internal/svcobs"
)

// These tests pin the pool's shutdown contract under contention: a job
// racing Close() must either complete normally or fail with a clean
// ErrPoolClosed (or the caller's own context error) — never hang, never
// panic, never return a nil run with a nil error. CI runs them under
// -race; the hang guard is the per-test watchdog below.

// watchdog fails the test if fn does not return within the deadline —
// the "never hang" half of the shutdown contract.
func watchdog(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("shutdown race hung: pool submission did not resolve")
	}
}

// checkOutcome validates one racing submission's result against the
// contract.
func checkOutcome(t *testing.T, ctx context.Context, err error) {
	t.Helper()
	if err == nil || errors.Is(err, ErrPoolClosed) || errors.Is(err, ctx.Err()) {
		return
	}
	t.Errorf("racing submission returned unexpected error: %v", err)
}

// TestPoolExecRacesClose: Exec submitters racing Close either finish or
// fail cleanly. The observer makes every submission open a timeline
// between its closed-pool check and its wait for a worker slot,
// widening the window in which a caller could start a job after Close
// began.
func TestPoolExecRacesClose(t *testing.T) {
	for round := 0; round < 3000; round++ {
		var calls atomic.Int64
		p := NewPool(PoolConfig{Workers: 2, QueueDepth: 64, Simulate: fakeSim(&calls),
			Observer: svcobs.NewObserver(nil)})
		ctx := context.Background()

		const submitters = 32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				run, err := p.Exec(ctx, labeled(fmt.Sprintf("race-%d", i)))
				if err == nil && run == nil {
					t.Error("Exec returned nil run with nil error")
				}
				checkOutcome(t, ctx, err)
			}(i)
		}
		close(start)
		// Close concurrently with the submissions: some jobs complete,
		// some fail cleanly, none hang.
		watchdog(t, 5*time.Second, func() {
			p.Close()
			wg.Wait()
		})
	}
}

// TestPoolExecAfterClose: submissions after Close fail immediately with
// ErrPoolClosed — no hang, and Close stays idempotent.
func TestPoolExecAfterClose(t *testing.T) {
	p := NewPool(PoolConfig{Workers: 1, Simulate: fakeSim(new(atomic.Int64))})
	p.Close()
	p.Close() // idempotent
	watchdog(t, 10*time.Second, func() {
		if _, err := p.Exec(context.Background(), labeled("late")); !errors.Is(err, ErrPoolClosed) {
			t.Errorf("Exec after Close = %v, want ErrPoolClosed", err)
		}
	})
}

// TestPoolCanceledCallerDuringClose: a caller whose context dies while
// racing Close gets its own context error or a pool answer — never a
// hang on a queue no worker will drain.
func TestPoolCanceledCallerDuringClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		p := NewPool(PoolConfig{Workers: 1, QueueDepth: 1, Simulate: fakeSim(new(atomic.Int64))})
		ctx, cancel := context.WithCancel(context.Background())

		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := p.Exec(ctx, labeled("canceled-race"))
				checkOutcome(t, ctx, err)
			}()
		}
		cancel()
		watchdog(t, 30*time.Second, func() {
			p.Close()
			wg.Wait()
		})
	}
}

// TestPoolCloseContract pins Close on a pool whose two workers are busy:
// the jobs running at once carry distinct worker IDs in [0, Workers) on
// their timelines; Close does not return while they run; callers still
// waiting fail with ErrPoolClosed and never simulate; the running jobs
// return their own records; and a second Close returns.
func TestPoolCloseContract(t *testing.T) {
	const workers, waiters = 2, 3
	var calls atomic.Int64
	started := make(chan string, workers)
	release := make(chan struct{})
	obs := svcobs.NewObserver(nil)
	p := NewPool(PoolConfig{Workers: workers, QueueDepth: 8, Observer: obs,
		Simulate: blockingSim(&calls, started, release)})

	type result struct {
		label string
		err   error
		run   string // the record's workload, "" for no record
	}
	results := make(chan result, workers+waiters)
	exec := func(label string) {
		go func() {
			run, err := p.Exec(context.Background(), labeled(label))
			r := result{label: label, err: err}
			if run != nil {
				r.run = run.Workload
			}
			results <- r
		}()
	}
	for i := 0; i < workers; i++ {
		exec(fmt.Sprintf("run-%d", i))
		<-started
	}
	seen := map[int]bool{}
	for _, st := range obs.InFlight() {
		if st.Stage != svcobs.StageCompute {
			continue
		}
		if st.Worker < 0 || st.Worker >= workers || seen[st.Worker] {
			t.Errorf("running job %s on worker %d; others on %v", st.Name, st.Worker, seen)
		}
		seen[st.Worker] = true
	}
	if len(seen) != workers {
		t.Errorf("%d running jobs on distinct workers, want %d", len(seen), workers)
	}
	for i := 0; i < waiters; i++ {
		exec(fmt.Sprintf("wait-%d", i))
	}
	waitFor(t, func() bool { return p.Metrics().depth.Load() == waiters })

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	watchdog(t, 5*time.Second, func() {
		for i := 0; i < waiters; i++ {
			r := <-results
			if !strings.HasPrefix(r.label, "wait-") || !errors.Is(r.err, ErrPoolClosed) || r.run != "" {
				t.Errorf("during Close: %s returned %q, %v; want a waiter failing with ErrPoolClosed",
					r.label, r.run, r.err)
			}
		}
	})
	select {
	case <-closed:
		t.Fatal("Close returned while jobs were running")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	for i := 0; i < workers; i++ {
		if r := <-results; r.err != nil || r.run != r.label {
			t.Errorf("running job %s returned %q, %v; want its own record", r.label, r.run, r.err)
		}
	}
	watchdog(t, 5*time.Second, func() {
		<-closed
		p.Close()
	})
	if n := calls.Load(); n != workers {
		t.Errorf("simulate calls = %d, want %d", n, workers)
	}
}
