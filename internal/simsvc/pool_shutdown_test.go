package simsvc

import (
	"context"
	"errors"
	"fmt"
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
// between its closed-pool check and its queue send, widening the window
// in which a send could land after Close drained the queue.
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
