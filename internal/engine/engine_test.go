package engine

import (
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/runtime"
	"ladm/internal/stats"
	sym "ladm/internal/symbolic"
)

// vecAdd builds a small streaming workload: C[i] = A[i] + B[i].
func vecAdd(tbs int) *kir.Workload {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "vecadd", Grid: kir.Dim1(tbs), Block: kir.Dim1(128), Iters: 1,
		ALUPerIter: 4,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid},
			{Array: "B", ElemSize: 4, Mode: kir.Load, Index: gid},
			{Array: "C", ElemSize: 4, Mode: kir.Store, Index: gid},
		},
	}
	bytes := uint64(tbs * 128 * 4)
	return &kir.Workload{
		Name: "vecadd", Suite: "test",
		Allocs: []kir.AllocSpec{
			{ID: "A", Bytes: bytes, ElemSize: 4},
			{ID: "B", Bytes: bytes, ElemSize: 4},
			{ID: "C", Bytes: bytes, ElemSize: 4},
		},
		Launches: []kir.Launch{{Kernel: k}},
	}
}

// TestDispatchedEvents pins the number of events vecadd(8) dispatches
// under LADM on the hier machine. The count follows from the event
// sequence alone, so a change to the queue's machinery must leave it
// where it is, and the scheduler counts every event whether or not an
// interrupt channel is armed. The engine is recycled from a larger cell
// on another machine, so the count also pins that build starts the
// count, the event arena and the free lists over from that cell's.
func TestDispatchedEvents(t *testing.T) {
	spec, err := kernels.ByName("random-loc", 256)
	if err != nil {
		t.Fatal(err)
	}
	dgx, hier := arch.DGXLike(), arch.DefaultHierarchical()
	e := new(Engine)
	for _, c := range []struct {
		w   *kir.Workload
		cfg *arch.Config
	}{{spec.W, &dgx}, {vecAdd(8), &hier}} {
		plan, err := runtime.Prepare(c.w, c.cfg, runtime.LADM())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recycle(t, e, plan); err != nil {
			t.Fatalf("%s on %s: %v", c.w.Name, c.cfg.Name, err)
		}
	}
	if got, want := e.sched.dispatched, uint64(216); got != want {
		t.Errorf("vecadd(8) on hier dispatched %d events, want %d", got, want)
	}
}

// stridedScan is a grid-stride workload whose stride defeats naive
// interleaving (the Figure 3 scenario).
func stridedScan(tbs, iters int) *kir.Workload {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	idx := sym.Sum(gid, sym.Prod(sym.M, sym.BDx, sym.GDx))
	k := &kir.Kernel{
		Name: "scan", Grid: kir.Dim1(tbs), Block: kir.Dim1(128), Iters: iters,
		ALUPerIter: 4,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: idx},
		},
	}
	bytes := uint64(tbs * 128 * iters * 4)
	return &kir.Workload{
		Name: "scan", Suite: "test",
		Allocs:   []kir.AllocSpec{{ID: "A", Bytes: bytes, ElemSize: 4}},
		Launches: []kir.Launch{{Kernel: k}},
	}
}

func simulate(t *testing.T, w *kir.Workload, cfg arch.Config, pol runtime.Policy) *stats.Run {
	t.Helper()
	plan, err := runtime.Prepare(w, &cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestMonolithicHasNoOffNodeTraffic(t *testing.T) {
	run := simulate(t, vecAdd(64), arch.MonolithicGPU(), runtime.KernelWide())
	if run.OffNodeBytes() != 0 {
		t.Errorf("monolithic moved %d bytes off node", run.OffNodeBytes())
	}
	if run.Cycles <= 0 {
		t.Error("no cycles simulated")
	}
	if run.LocalBytes == 0 || run.DRAMBytes == 0 {
		t.Error("no traffic recorded")
	}
	// Streaming workload with no reuse: every unique sector misses L2 once.
	want := uint64(64 * 128 * 4 * 3) // bytes of A+B+C
	if run.DRAMBytes < want {
		t.Errorf("DRAM bytes = %d, want >= %d", run.DRAMBytes, want)
	}
}

func TestWarpInstrsCounted(t *testing.T) {
	run := simulate(t, vecAdd(64), arch.MonolithicGPU(), runtime.KernelWide())
	// 64 TBs * 4 warps * (3 memory + 4 ALU) = 1792.
	if got := run.WarpInstrs; got != 64*4*7 {
		t.Errorf("warp instrs = %d, want %d", got, 64*4*7)
	}
	if run.TBs != 64 {
		t.Errorf("TBs = %d", run.TBs)
	}
}

func TestLASPBeatsBaselineOnStrided(t *testing.T) {
	w := stridedScan(256, 8)
	cfg := arch.DefaultHierarchical()
	base := simulate(t, w, cfg, runtime.BaselineRR())
	ladm := simulate(t, w, cfg, runtime.LADM())
	// The entire point of the paper: stride-aware placement plus aligned
	// scheduling eliminates almost all off-node traffic.
	if ladm.OffNodeFraction() >= base.OffNodeFraction()/2 {
		t.Errorf("LADM off-node %.3f not well below baseline %.3f",
			ladm.OffNodeFraction(), base.OffNodeFraction())
	}
	if ladm.OffNodeFraction() > 0.05 {
		t.Errorf("LADM should keep strided traffic local, got %.3f off-node",
			ladm.OffNodeFraction())
	}
	if ladm.Cycles >= base.Cycles {
		t.Errorf("LADM cycles %.0f not faster than baseline %.0f", ladm.Cycles, base.Cycles)
	}
}

func TestFirstTouchKeepsStridesLocalButFaultsCost(t *testing.T) {
	w := stridedScan(256, 8)
	cfg := arch.DefaultHierarchical()
	opt := simulate(t, w, cfg, runtime.BatchFTOptimal())
	real := simulate(t, w, cfg, runtime.BatchFT())
	// First touch maps each page to its first toucher: strided pages stay
	// local (Table I row "Threadblock-stride aware").
	if opt.OffNodeFraction() > 0.05 {
		t.Errorf("Batch+FT off-node fraction = %.3f, want ~0", opt.OffNodeFraction())
	}
	if opt.PageFaults == 0 {
		t.Error("first touch took no faults")
	}
	// Realistic fault costs must slow the run down.
	if real.Cycles <= opt.Cycles {
		t.Errorf("faulting run (%.0f) not slower than optimal (%.0f)", real.Cycles, opt.Cycles)
	}
}

func TestMonolithicFasterThanNUMABaseline(t *testing.T) {
	w := vecAdd(512)
	numa := simulate(t, w, arch.DefaultHierarchical(), runtime.BaselineRR())
	mono := simulate(t, w, arch.MonolithicGPU(), runtime.BaselineRR())
	if mono.Cycles >= numa.Cycles {
		t.Errorf("monolithic (%.0f cycles) should beat NUMA baseline (%.0f)",
			mono.Cycles, numa.Cycles)
	}
}

func TestTrafficCategoriesPopulated(t *testing.T) {
	run := simulate(t, vecAdd(256), arch.DefaultHierarchical(), runtime.BaselineRR())
	ll := run.L2[stats.LocalLocal].Sectors
	lr := run.L2[stats.LocalRemote].Sectors
	rl := run.L2[stats.RemoteLocal].Sectors
	if ll == 0 || lr == 0 || rl == 0 {
		t.Errorf("traffic categories: LL=%d LR=%d RL=%d (all should be nonzero under RR)", ll, lr, rl)
	}
	// Conservation: every remote-homed access arrives at some home node —
	// load misses of the requester-side lookup plus remote stores (which
	// skip that lookup and go straight to the home slice). C's stores are
	// 256*128*4B = 4096 sectors, 15/16 of which are remote under perfect
	// page striping.
	loadMisses := lr - run.L2[stats.LocalRemote].Hits
	remoteStores := uint64(256 * 128 * 4 / 32 * 15 / 16)
	if rl != loadMisses+remoteStores {
		t.Errorf("REMOTE-LOCAL sectors (%d) != load misses (%d) + remote stores (%d)",
			rl, loadMisses, remoteStores)
	}
}

func TestRONCEBypassesHomeL2(t *testing.T) {
	// Strided workload under baseline placement generates remote traffic;
	// compare home-L2 behaviour under forced RONCE vs RTWICE.
	w := stridedScan(128, 4)
	cfg := arch.DefaultHierarchical()

	rtwice := runtime.BaselineRR()
	ronce := runtime.BaselineRR()
	ronce.Name = "baseline-ronce"
	ronce.Cache = runtime.CacheRONCE

	rt := simulate(t, w, cfg, rtwice)
	ro := simulate(t, w, cfg, ronce)
	// Same request streams: REMOTE-LOCAL sector counts match.
	if rt.L2[stats.RemoteLocal].Sectors != ro.L2[stats.RemoteLocal].Sectors {
		t.Errorf("RONCE changed remote traffic: %d vs %d",
			rt.L2[stats.RemoteLocal].Sectors, ro.L2[stats.RemoteLocal].Sectors)
	}
}

func TestDeterminism(t *testing.T) {
	w := vecAdd(128)
	cfg := arch.DefaultHierarchical()
	a := simulate(t, w, cfg, runtime.LADM())
	b := simulate(t, w, cfg, runtime.LADM())
	if a.Cycles != b.Cycles || a.DRAMBytes != b.DRAMBytes ||
		a.OffNodeBytes() != b.OffNodeBytes() || a.WarpInstrs != b.WarpInstrs {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRepeatedLaunchFlushesL2(t *testing.T) {
	w := vecAdd(64)
	w.Launches[0].Times = 2
	run := simulate(t, w, arch.MonolithicGPU(), runtime.KernelWide())
	// With the inter-kernel flush, the second launch re-reads everything:
	// DRAM read bytes should be ~2x the footprint, not 1x.
	foot := uint64(64 * 128 * 4 * 3)
	if run.DRAMBytes < 2*foot {
		t.Errorf("DRAM bytes = %d, want >= %d (flush lost?)", run.DRAMBytes, 2*foot)
	}
}

func TestL1CapturesIntraThreadReuse(t *testing.T) {
	// Each thread re-reads the same element every iteration: after the
	// first iteration everything hits in L1.
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "reuse", Grid: kir.Dim1(16), Block: kir.Dim1(128), Iters: 8,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid},
		},
	}
	w := &kir.Workload{
		Name: "reuse", Suite: "test",
		Allocs:   []kir.AllocSpec{{ID: "A", Bytes: 16 * 128 * 4, ElemSize: 4}},
		Launches: []kir.Launch{{Kernel: k}},
	}
	run := simulate(t, w, arch.MonolithicGPU(), runtime.KernelWide())
	if hr := run.L1HitRate(); hr < 0.8 {
		t.Errorf("L1 hit rate = %.3f, want > 0.8 for full reuse", hr)
	}
}

func TestStoresAreFireAndForget(t *testing.T) {
	// A store-only kernel's cycles should be dominated by issue, not
	// round-trip latency: it must be far faster than a load of the same
	// volume over remote nodes.
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	mk := func(mode kir.AccessMode) *kir.Workload {
		k := &kir.Kernel{
			Name: "st", Grid: kir.Dim1(64), Block: kir.Dim1(128), Iters: 1,
			Accesses: []kir.Access{
				{Array: "A", ElemSize: 4, Mode: mode, Index: gid},
			},
		}
		return &kir.Workload{
			Name: "st", Suite: "test",
			Allocs:   []kir.AllocSpec{{ID: "A", Bytes: 64 * 128 * 4, ElemSize: 4}},
			Launches: []kir.Launch{{Kernel: k}},
		}
	}
	cfg := arch.DefaultHierarchical()
	st := simulate(t, mk(kir.Store), cfg, runtime.BaselineRR())
	ld := simulate(t, mk(kir.Load), cfg, runtime.BaselineRR())
	if st.Cycles >= ld.Cycles {
		t.Errorf("store kernel (%.0f) should not be slower than load kernel (%.0f)",
			st.Cycles, ld.Cycles)
	}
}

func BenchmarkEngineVecAdd(b *testing.B) {
	w := vecAdd(256)
	cfg := arch.DefaultHierarchical()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err := runtime.Prepare(w, &cfg, runtime.LADM())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := New(plan).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreHeavyColumnWalkStaysBounded is a regression test for two timing
// pathologies: far-future resource poisoning by synchronously computed
// request chains, and dirty-eviction writebacks booked at post-DRAM
// completion times. Both inflated a transpose-style store-heavy kernel by
// orders of magnitude; with event-ordered booking the runtime must stay
// within a small multiple of the busiest resource's serialization bound.
func TestStoreHeavyColumnWalkStaysBounded(t *testing.T) {
	height := sym.Prod(sym.GDy, sym.BDy)
	inIdx := sym.Sum(sym.Prod(rowExpr2(), sym.P("W")), sym.Prod(sym.M, sym.C(16)), sym.Tx)
	outIdx := sym.Sum(
		sym.Prod(sym.Sum(sym.Prod(sym.M, sym.C(16)), sym.Ty), height),
		sym.Prod(sym.By, sym.BDy), sym.Tx)
	k := &kir.Kernel{
		Name: "mini-tra", Grid: kir.Dim2(1, 256), Block: kir.Dim2(16, 16),
		Iters: 8, ALUPerIter: 2,
		Params: map[string]int64{"W": 128},
		Accesses: []kir.Access{
			{Array: "in", ElemSize: 4, Mode: kir.Load, Index: inIdx},
			{Array: "out", ElemSize: 4, Mode: kir.Store, Index: outIdx},
		},
	}
	cells := uint64(128 * 256 * 16)
	w := &kir.Workload{
		Name: "mini-tra", Suite: "test",
		Allocs: []kir.AllocSpec{
			{ID: "in", Bytes: cells * 4, ElemSize: 4},
			{ID: "out", Bytes: cells * 4, ElemSize: 4},
		},
		Launches: []kir.Launch{{Kernel: k}},
	}
	for _, pol := range []runtime.Policy{runtime.HCODA(), runtime.LADM()} {
		run := simulate(t, w, arch.DefaultHierarchical(), pol)
		floor := run.MaxDRAMBusy
		for _, b := range []float64{run.MaxRingBusy, run.MaxLinkBusy, run.MaxL2SrvBusy, run.MaxIssueBusy} {
			if b > floor {
				floor = b
			}
		}
		if floor <= 0 {
			t.Fatalf("%s: no resource pressure recorded", pol.Name)
		}
		if run.Cycles > 100*floor {
			t.Errorf("%s: cycles %.0f exceed 100x the busiest resource (%.0f) — timing pathology",
				pol.Name, run.Cycles, floor)
		}
	}
}

// rowExpr2 is blockIdx.y*blockDim.y + threadIdx.y.
func rowExpr2() sym.Expr {
	return sym.Sum(sym.Prod(sym.By, sym.BDy), sym.Ty)
}

// TestOversubscriptionPaging exercises the residency model end to end:
// constrained capacity forces host fetches; proactive staging is cheaper
// than reactive faulting on the same workload.
func TestOversubscriptionPaging(t *testing.T) {
	w := vecAdd(256)
	w.Launches[0].Times = 2
	cfg := arch.DefaultHierarchical()
	cfg.MemCapacityPerNodeKB = 8 // far below the per-node footprint

	reactive := runtime.BatchFT()
	proactive := runtime.LADM()

	re := simulate(t, w, cfg, reactive)
	pro := simulate(t, w, cfg, proactive)
	if re.HostFetches == 0 || pro.HostFetches == 0 {
		t.Fatalf("no host fetches under oversubscription: %d / %d",
			re.HostFetches, pro.HostFetches)
	}
	if pro.Cycles >= re.Cycles {
		t.Errorf("proactive staging (%.0f) should beat reactive faulting (%.0f)",
			pro.Cycles, re.Cycles)
	}
	// Unlimited capacity takes no fetches.
	cfg.MemCapacityPerNodeKB = 0
	free := simulate(t, w, cfg, proactive)
	if free.HostFetches != 0 {
		t.Errorf("unlimited capacity fetched %d pages", free.HostFetches)
	}
}
