package engine

import (
	"testing"

	"ladm/internal/arch"
	"ladm/internal/runtime"
	"ladm/internal/trace"
)

// TestSteadyStateZeroAllocs is the allocation budget for the event core:
// after one warm-up launch (which grows the event heap, the free lists and
// the transaction buffers to steady-state size), repeating the same kernel
// launch must allocate nothing — zero allocations per simulated event, not
// just a small constant. Everything per-event is recycled: events live by
// value in the scheduler's heap, txState/phaseRun/tbExec come from the
// engine's free lists, and the TB queues reload into retained backing
// arrays.
func TestSteadyStateZeroAllocs(t *testing.T) {
	w := vecAdd(64)
	cfg := arch.DefaultHierarchical()
	plan, err := runtime.Prepare(w, &cfg, runtime.LADM())
	if err != nil {
		t.Fatal(err)
	}
	e := New(plan)
	lp := &plan.Launches[0]
	gen, err := trace.New(lp.Launch.Kernel, plan.Space, plan.Workload.Tables,
		cfg.LineBytes, cfg.SectorBytes, cfg.WarpSize)
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: first-touch page faults land, pools and buffers grow.
	e.runKernel(gen, lp)
	e.flushL2s()

	avg := testing.AllocsPerRun(10, func() {
		e.runKernel(gen, lp)
		e.flushL2s()
	})
	if avg != 0 {
		t.Errorf("steady-state kernel launch allocates %.1f objects per run, want 0", avg)
	}
}

// TestSchedulerZeroAllocs pins the scheduler primitive itself: scheduling
// a pooled runner and draining the heap must not allocate once the heap's
// backing array exists.
func TestSchedulerZeroAllocs(t *testing.T) {
	var s scheduler
	x := &tbExec{} // any pointer-shaped runner; never dispatched here
	_ = x
	var fired int
	r := funcEvent(func(t float64) { fired++ })
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		s.schedule(float64(i), r)
	}
	s.drain()

	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.schedule(s.now+float64(i), r)
		}
		s.drain()
	})
	if avg != 0 {
		t.Errorf("schedule/drain allocates %.1f objects per 64-event burst, want 0", avg)
	}
	if fired == 0 {
		t.Fatal("events never fired")
	}
}
