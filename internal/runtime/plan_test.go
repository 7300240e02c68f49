package runtime

import (
	"testing"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
	"ladm/internal/trace"
)

func hier() *arch.Config {
	c := arch.DefaultHierarchical()
	return &c
}

// gemmWorkload builds the Figure 6 tiled GEMM with B larger than A, so the
// tie-break should pick B's column binding.
func gemmWorkload(aBytes, bBytes uint64) *kir.Workload {
	tile := sym.C(16)
	width := sym.Prod(sym.GDx, sym.BDx)
	row := sym.Sum(sym.Prod(sym.By, tile), sym.Ty)
	col := sym.Sum(sym.Prod(sym.Bx, tile), sym.Tx)
	k := &kir.Kernel{
		Name: "sgemm", Grid: kir.Dim2(16, 16), Block: kir.Dim2(16, 16), Iters: 16,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load,
				Index: sym.Sum(sym.Prod(row, width), sym.Prod(sym.M, tile), sym.Tx)},
			{Array: "B", ElemSize: 4, Mode: kir.Load,
				Index: sym.Sum(sym.Prod(sym.Sum(sym.Prod(sym.M, tile), sym.Ty), width), col)},
			{Array: "C", ElemSize: 4, Mode: kir.Store, Phase: kir.PostLoop,
				Index: sym.Sum(sym.Prod(row, width), col)},
		},
	}
	return &kir.Workload{
		Name: "sgemm", Suite: "test",
		Allocs: []kir.AllocSpec{
			{ID: "A", Bytes: aBytes, ElemSize: 4},
			{ID: "B", Bytes: bBytes, ElemSize: 4},
			{ID: "C", Bytes: aBytes, ElemSize: 4},
		},
		Launches: []kir.Launch{{Kernel: k}},
	}
}

// stridedWorkload is a ScalarProd-style grid-stride reduction.
func stridedWorkload() *kir.Workload {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	idx := sym.Sum(gid, sym.Prod(sym.M, sym.BDx, sym.GDx))
	k := &kir.Kernel{
		Name: "scalarprod", Grid: kir.Dim1(256), Block: kir.Dim1(256), Iters: 8,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: idx},
			{Array: "B", ElemSize: 4, Mode: kir.Load, Index: idx},
		},
	}
	elems := uint64(256 * 256 * 8)
	return &kir.Workload{
		Name: "scalarprod", Suite: "test",
		Allocs: []kir.AllocSpec{
			{ID: "A", Bytes: elems * 4, ElemSize: 4},
			{ID: "B", Bytes: elems * 4, ElemSize: 4},
		},
		Launches: []kir.Launch{{Kernel: k}},
	}
}

// itlWorkload is a CSR-style graph walk (ITL dominant).
func itlWorkload() *kir.Workload {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "walk", Grid: kir.Dim1(64), Block: kir.Dim1(128), Iters: 8,
		Accesses: []kir.Access{
			{Array: "cols", ElemSize: 4, Mode: kir.Load,
				Index: sym.Sum(sym.Ind("rowptr", gid), sym.M)},
			{Array: "ranks", ElemSize: 4, Mode: kir.Load,
				Index: sym.Ind("colval", sym.Sum(gid, sym.M))},
		},
	}
	return &kir.Workload{
		Name: "walk", Suite: "test",
		Allocs: []kir.AllocSpec{
			{ID: "cols", Bytes: 1 << 20, ElemSize: 4},
			{ID: "ranks", Bytes: 1 << 16, ElemSize: 4},
		},
		Launches: []kir.Launch{{Kernel: k}},
		Tables:   map[string][]int64{"rowptr": {0}, "colval": {0}},
	}
}

func TestPrepareGEMMColBinding(t *testing.T) {
	// B is 4x larger than A: LASP must pick column binding (the paper's
	// input-size-aware tie break).
	w := gemmWorkload(1<<20, 4<<20)
	plan, err := Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.SchedulerName(0); got != "col-binding" {
		t.Errorf("scheduler = %q, want col-binding", got)
	}
	// Equal sizes with A listed first: row binding wins (A found first at
	// equal weight) — the direction is stable, not flapping.
	w = gemmWorkload(4<<20, 4<<20)
	plan, err = Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.SchedulerName(0); got != "row-binding" {
		t.Errorf("equal-size scheduler = %q, want row-binding", got)
	}
}

func TestPrepareStrideAware(t *testing.T) {
	w := stridedWorkload()
	plan, err := Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.SchedulerName(0); got != "align-aware" {
		t.Errorf("scheduler = %q, want align-aware", got)
	}
	// Co-placement invariant: every page a threadblock touches lives on
	// the node the threadblock was assigned to.
	lp := plan.Launches[0]
	gen, err := trace.New(lp.Launch.Kernel, plan.Space, w.Tables,
		plan.Cfg.LineBytes, plan.Cfg.SectorBytes, plan.Cfg.WarpSize)
	if err != nil {
		t.Fatal(err)
	}
	k := lp.Launch.Kernel
	warps := k.WarpsPerTB(32)
	var buf []trace.Transaction
	for node, q := range lp.Assignment.Queues {
		for _, tb := range q {
			for m := 0; m < k.Iters; m++ {
				for wp := 0; wp < warps; wp++ {
					buf = buf[:0]
					buf, _ = gen.WarpTransactions(int(tb), wp, m, kir.InLoop, buf)
					for _, tx := range buf {
						if home := plan.Space.Home(tx.Line() * uint64(plan.Cfg.LineBytes)); home != node {
							t.Fatalf("TB %d on node %d touches page homed on %d (m=%d)",
								tb, node, home, m)
						}
					}
				}
			}
		}
	}
}

func TestPrepareITLKernelWide(t *testing.T) {
	w := itlWorkload()
	plan, err := Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dominant != compiler.IntraThread {
		t.Errorf("dominant = %v, want ITL", plan.Dominant)
	}
	if got := plan.SchedulerName(0); got != "kernel-wide" {
		t.Errorf("scheduler = %q, want kernel-wide", got)
	}
	// CRB enables RONCE for every structure of an ITL workload.
	for _, a := range plan.Space.Allocs() {
		if !plan.RemoteOnce[a.ID] {
			t.Errorf("alloc %q should be remote-once under CRB", a.ID)
		}
	}
}

func TestCRBKeepsRTwiceForRCL(t *testing.T) {
	w := gemmWorkload(4<<20, 4<<20)
	plan, err := Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	for id, on := range plan.RemoteOnce {
		if on {
			t.Errorf("RCL workload alloc %q marked remote-once under CRB", id)
		}
	}
	// LASP+RONCE forces bypassing everywhere.
	plan, _ = Prepare(w, hier(), LASPROnce())
	for _, a := range plan.Space.Allocs() {
		if !plan.RemoteOnce[a.ID] {
			t.Errorf("lasp+ronce should mark %q", a.ID)
		}
	}
}

func TestFirstTouchFlags(t *testing.T) {
	w := stridedWorkload()
	plan, err := Prepare(w, hier(), BatchFTOptimal())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.FirstTouch || plan.FaultCycles != 0 {
		t.Errorf("optimal FT: firstTouch=%v cost=%f", plan.FirstTouch, plan.FaultCycles)
	}
	// Pages start unmapped.
	a := plan.Space.Allocs()[0]
	if plan.Space.Home(a.Base) != -1 {
		t.Error("first-touch pages should start unmapped")
	}
	plan, _ = Prepare(w, hier(), BatchFT())
	if plan.FaultCycles != faultCostCycles {
		t.Errorf("realistic FT cost = %f", plan.FaultCycles)
	}
}

func TestInterleaveAndChunkPlacements(t *testing.T) {
	w := stridedWorkload()
	// Baseline: gran-1 interleave; page i of A on node i%16.
	plan, err := Prepare(w, hier(), BaselineRR())
	if err != nil {
		t.Fatal(err)
	}
	a := plan.Space.Lookup("A")
	for i := 0; i < 32; i++ {
		addr := a.Base + uint64(i)*plan.Cfg.PageBytes
		if got := plan.Space.Home(addr); got != i%16 {
			t.Fatalf("baseline page %d on node %d", i, got)
		}
	}
	// Kernel-wide: contiguous chunks; first pages on node 0, last on 15.
	plan, _ = Prepare(w, hier(), KernelWide())
	a = plan.Space.Lookup("A")
	if plan.Space.Home(a.Base) != 0 {
		t.Error("kernel-wide first page not on node 0")
	}
	if plan.Space.Home(a.Base+a.Size-1) != 15 {
		t.Error("kernel-wide last page not on node 15")
	}
}

func TestMonolithicPlan(t *testing.T) {
	mono := arch.MonolithicGPU()
	w := gemmWorkload(1<<20, 1<<20)
	plan, err := Prepare(w, &mono, LADM())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Space.Allocs() {
		if plan.Space.Home(a.Base) != 0 {
			t.Error("monolithic data must be on node 0")
		}
	}
	if len(plan.Launches[0].Assignment.Queues) != 1 {
		t.Error("monolithic should have one queue")
	}
}

func TestColumnPlacementGPUAffinity(t *testing.T) {
	// Big B: columns must map consistently to GPUs — pages of one column
	// chunk land on one GPU regardless of the data row.
	w := gemmWorkload(1<<20, 16<<20) // B = 16 MB: 2048x2048 floats
	plan, err := Prepare(w, hier(), LADM())
	if err != nil {
		t.Fatal(err)
	}
	b := plan.Space.Lookup("B")
	// The kernel models WIDTH = gDim.x*bDim.x = 256 elements: rowBytes =
	// 1024B. That is below 4 GPUs * 4 KB pages, so the placer falls back
	// to interleave; verify the fallback is sane (all pages mapped).
	for off := uint64(0); off < b.Size; off += plan.Cfg.PageBytes {
		if plan.Space.Home(b.Base+off) < 0 {
			t.Fatal("unmapped page under LASP fallback")
		}
	}
}

func TestPrepareRejectsBadInput(t *testing.T) {
	w := gemmWorkload(1<<20, 1<<20)
	w.Allocs = w.Allocs[:1] // missing arrays
	if _, err := Prepare(w, hier(), LADM()); err == nil {
		t.Error("invalid workload should fail Prepare")
	}
	w = gemmWorkload(1<<20, 1<<20)
	bad := arch.DefaultHierarchical()
	bad.GPUs = 0
	if _, err := Prepare(w, &bad, LADM()); err == nil {
		t.Error("invalid arch should fail Prepare")
	}
}

func TestAllPoliciesPrepareAllWorkloads(t *testing.T) {
	workloads := []*kir.Workload{
		gemmWorkload(1<<20, 4<<20),
		stridedWorkload(),
		itlWorkload(),
	}
	for _, w := range workloads {
		for _, pol := range All() {
			plan, err := Prepare(w, hier(), pol)
			if err != nil {
				t.Errorf("%s/%s: %v", w.Name, pol.Name, err)
				continue
			}
			// Every TB scheduled exactly once.
			if got := plan.Launches[0].Assignment.TotalTBs(); got != w.Launches[0].Kernel.Grid.Count() {
				t.Errorf("%s/%s: %d TBs assigned", w.Name, pol.Name, got)
			}
			// Every page mapped unless first-touch.
			if !plan.FirstTouch {
				for _, a := range plan.Space.Allocs() {
					if plan.Space.MappedFraction(a) != 1 {
						t.Errorf("%s/%s: alloc %q not fully mapped", w.Name, pol.Name, a.ID)
					}
				}
			}
		}
	}
}
