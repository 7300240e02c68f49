package engine

import (
	goruntime "runtime"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
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

// smallCellBytesEager is what one sq-gemm scale-64 LADM cell on the
// Table III machine allocated (runtime.MemStats.TotalAlloc, go1.24,
// amd64) while engine.New still built every cache's lines up front:
// 6.5 MB, almost all of it the line arrays of 256 L1s and 16 L2 slices.
// The cell's 4 threadblocks touch a handful of them.
const smallCellBytesEager = 6522848

// TestSmallCellAllocBudget is the allocation budget for the per-cell
// machine, the cost a design-space sweep of cheap cells pays per cell:
// after a warm-up, preparing and running one cheap cell must allocate
// at most half of what it did with eager cache lines. Caches allocate
// their lines on first access, so the untouched ones cost nothing.
func TestSmallCellAllocBudget(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := arch.ByName("hier")
	if err != nil {
		t.Fatal(err)
	}
	cell := func() {
		plan, err := runtime.Prepare(spec.W, &cfg, runtime.LADM())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(plan).Run(); err != nil {
			t.Fatal(err)
		}
	}
	cell() // warm-up: package-level caches and lazily built tables
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	cell()
	goruntime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if budget := uint64(smallCellBytesEager / 2); got > budget {
		t.Errorf("sq-gemm/ladm/hier at scale 64 allocated %d bytes, budget %d (half of eager lines' %d)",
			got, budget, smallCellBytesEager)
	}
	t.Logf("allocated %d bytes (eager lines: %d)", got, smallCellBytesEager)
}
