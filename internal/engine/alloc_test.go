package engine

import (
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
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
// arrays. A launch that replays its phases from a tape allocates nothing
// either: the words are read where the tape holds them.
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

	// The same launch under a tape: the warm-up generates and publishes
	// every phase, and each later launch replays them all.
	tapes := new(trace.Tapes)
	e.tape = tapes.Tape(gen)
	e.runKernel(gen, lp)
	e.flushL2s()
	warm := tapes.Stats()
	avg = testing.AllocsPerRun(10, func() {
		e.runKernel(gen, lp)
		e.flushL2s()
	})
	if avg != 0 {
		t.Errorf("replayed kernel launch allocates %.1f objects per run, want 0", avg)
	}
	if st := tapes.Stats(); warm.Generated == 0 || st.Generated != warm.Generated || st.Replayed != 11*warm.Generated {
		t.Errorf("the warm-up launch generated %d phases; after 11 more launches %d generated and %d replayed, want every later phase replayed",
			warm.Generated, st.Generated, st.Replayed)
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
// (runtime.MemStats.TotalAlloc after a warm-up, go1.24, amd64), whether
// or not New gets a retired engine back from the pool, and
// newObjectBudget the heap objects a fresh New may make.
// recycledCellBudget bounds the same cell built over a retired engine.
// The cell's 4 threadblocks touch a few L1s, and a few pages of sets of
// the L2 slices its data is homed on. Measured per cell:
//
//	                                MB per cell                                                objects per New
//	machine             eager lines  lazy lines  lazy pages  value slices  pooled pages  recycled engine   per unit  value slices
//	hier, hier-perlink         6.52        0.87        0.38          0.33          0.18             0.06  1406-1474            17
//	monolithic                    -        3.40        0.33          0.27          0.17             0.05       1206            17
//	xbar-*, ring-*                -        1.84        0.36          0.31          0.18             0.07  1244-1278            17
//	dgx                        8.90        2.66        0.39          0.33          0.20             0.07       1536            17
//
// Eager lines built every cache's array in engine.New; lazy lines
// built a cache's whole array on its first access; lazy pages build
// only the pages of sets it touches. Per unit, New made a heap object
// (and a formatted name) for every L1, issue port, L2 slice, HBM stack
// and channel, and the free lists started at full slabs. With value
// slices New makes a few slices per level, names a resource only when a
// message asks, and the free lists' first slabs are small. With pooled
// pages the cell takes its full pages from those the warm-up released
// at the end of its Run. A recycled engine also keeps the machine's
// slices, the event arena and the free lists of the cell before it, so
// the cell allocates its plan, its record, its network and residency,
// its transaction buffers and its partial pages.
const (
	smallCellBudget    = 256 << 10
	recycledCellBudget = 96 << 10
	newObjectBudget    = 100
)

// TestSmallCellAllocBudget is the allocation budget for the per-cell
// machine, the cost a design-space sweep of cheap cells pays per cell:
// after a warm-up, preparing and running one cheap cell must allocate
// at most smallCellBudget on every machine, so the machines with large
// L2s (monolithic's 16 MB, dgx's 6 MB slices) pay no more than hier,
// and building its machine must make at most newObjectBudget objects,
// however many SMs, nodes and channels the machine has. New builds a
// zero engine when the pool is empty and over the engine the last Run
// retired when it is not, and sync.Pool promises neither, so the test
// measures both: smallCellBudget holds a cell on a zero engine, and
// recycledCellBudget the same cell built over a retired engine, through
// the seam Run and New share.
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
			prepare := func() *runtime.Plan {
				plan, err := runtime.Prepare(spec.W, &cfg, runtime.LADM())
				if err != nil {
					t.Fatal(err)
				}
				return plan
			}
			// The pools of released cache pages and retired engines
			// last two GCs: keep the GC off from the warm-ups that fill
			// them to the end of the cells measured.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			measure := func(cell func()) uint64 {
				var before, after goruntime.MemStats
				goruntime.ReadMemStats(&before)
				cell()
				goruntime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			fresh := func() { // New on an empty pool
				if _, err := build(prepare(), new(Engine)).Run(); err != nil {
					t.Fatal(err)
				}
			}
			fresh() // warm-up: package-level caches, lazily built tables, pooled pages
			got := measure(fresh)
			if got > smallCellBudget {
				t.Errorf("sq-gemm/ladm/%s at scale 64 allocated %d bytes, budget %d", name, got, smallCellBudget)
			}
			// The recycled cell is Run through the seam on one engine:
			// build, simulate, release, retire. It takes its full pages
			// from the cache package's pool, whose Puts the race
			// detector drops a quarter of at random, so the warm-up
			// also releases the pages of spareCells more cells run side
			// by side: the pool then holds the cell's pages whatever it
			// drops, and the cell allocates the same bytes either way.
			const spareCells = 8
			e := new(Engine)
			recycled := func() {
				if _, err := build(prepare(), e).simulate(); err != nil {
					t.Fatal(err)
				}
				e.release()
				e.retire()
			}
			recycled() // warm-up: the engine's arrays
			var spares [spareCells]*Engine
			for i := range spares {
				spares[i] = build(prepare(), new(Engine))
				if _, err := spares[i].simulate(); err != nil {
					t.Fatal(err)
				}
			}
			for _, spare := range spares {
				spare.release()
			}
			reused := measure(recycled)
			if reused > recycledCellBudget {
				t.Errorf("sq-gemm/ladm/%s at scale 64 on a recycled engine allocated %d bytes, budget %d", name, reused, recycledCellBudget)
			}
			plan := prepare()
			objects := testing.AllocsPerRun(20, func() { build(plan, new(Engine)) })
			if objects > newObjectBudget {
				t.Errorf("New on %s made %.0f objects, budget %d", name, objects, newObjectBudget)
			}
			t.Logf("allocated %d bytes, %d on a recycled engine; a fresh New made %.0f objects", got, reused, objects)
		})
	}
}

// BenchmarkCheapCells measures the per-cell cost a design-space sweep
// of cheap cells pays: one op is 200 cells, each runtime.Prepare + New
// + Run, drawn in a fixed seeded order from a sweep of cheap regular
// workloads over every policy, every machine and scales 64 to 512.
// Each cell takes its cache pages from those the cells before it
// released.
func BenchmarkCheapCells(b *testing.B) {
	type cell struct {
		spec *kernels.Spec
		cfg  arch.Config
		pol  runtime.Policy
	}
	var cells []cell
	for _, w := range []string{"sq-gemm", "vecadd", "lstm-1", "alexnet-fc2"} {
		for _, scale := range []int{64, 96, 128, 160, 192, 224, 256, 320, 384, 448, 512} {
			spec, err := kernels.ByName(w, scale)
			if err != nil {
				b.Fatal(err)
			}
			for _, pol := range runtime.All() {
				for _, m := range arch.Names() {
					cfg, err := arch.ByName(m)
					if err != nil {
						b.Fatal(err)
					}
					cells = append(cells, cell{spec, cfg, pol})
				}
			}
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(len(cells))[:200]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range order {
			plan, err := runtime.Prepare(cells[c].spec.W, &cells[c].cfg, cells[c].pol)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := New(plan).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
