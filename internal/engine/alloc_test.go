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

// smallCellBudget bounds what one sq-gemm scale-64 LADM cell
// (runtime.Prepare + New + Run) may allocate on any registered machine
// (runtime.MemStats.TotalAlloc after a warm-up, go1.24, amd64). The
// cell's 4 threadblocks touch a few L1s, and a few pages of sets of the
// L2 slices its data is homed on. Measured, in MB per cell:
//
//	machine            eager lines  lazy lines  lazy pages
//	hier, hier-perlink        6.52        0.87        0.38
//	monolithic                   -        3.40        0.33
//	xbar-*, ring-*               -        1.84        0.36
//	dgx                       8.90        2.66        0.39
//
// Eager lines built every cache's array in engine.New; lazy lines
// built a cache's whole array on its first access; lazy pages build
// only the pages of sets it touches.
const smallCellBudget = 512 << 10

// TestSmallCellAllocBudget is the allocation budget for the per-cell
// machine, the cost a design-space sweep of cheap cells pays per cell:
// after a warm-up, preparing and running one cheap cell must allocate
// at most smallCellBudget on every machine, so the machines with large
// L2s (monolithic's 16 MB, dgx's 6 MB slices) pay no more than hier.
func TestSmallCellAllocBudget(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range arch.Names() {
		t.Run(name, func(t *testing.T) {
			cfg, err := arch.ByName(name)
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
			if got > smallCellBudget {
				t.Errorf("sq-gemm/ladm/%s at scale 64 allocated %d bytes, budget %d", name, got, smallCellBudget)
			}
			t.Logf("allocated %d bytes, %d objects", got, after.Mallocs-before.Mallocs)
		})
	}
}
