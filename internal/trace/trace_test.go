package trace

import (
	"math/bits"
	"testing"

	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/mem/page"
	sym "ladm/internal/symbolic"
)

func setup(t *testing.T, k *kir.Kernel, allocs []kir.AllocSpec, tables map[string][]int64) *Generator {
	t.Helper()
	space := page.NewSpace(4096, 4)
	for _, a := range allocs {
		space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	g, err := New(k, space, tables, 128, 32, 32)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// addr returns the address of a transaction of the 128-byte lines every
// test here generates.
func addr(tx Transaction) uint64 { return tx.Line() * 128 }

func coalescedKernel() (*kir.Kernel, []kir.AllocSpec) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "vecadd", Grid: kir.Dim1(8), Block: kir.Dim1(64), Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid},
			{Array: "C", ElemSize: 4, Mode: kir.Store, Index: gid},
		},
	}
	allocs := []kir.AllocSpec{
		{ID: "A", Bytes: 8 * 64 * 4, ElemSize: 4},
		{ID: "C", Bytes: 8 * 64 * 4, ElemSize: 4},
	}
	return k, allocs
}

func TestFullyCoalescedWarp(t *testing.T) {
	k, allocs := coalescedKernel()
	g := setup(t, k, allocs, nil)
	txs, instrs := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	// 32 threads * 4B = 128B = exactly one line per access site.
	if instrs != 2 {
		t.Errorf("instrs = %d, want 2", instrs)
	}
	if len(txs) != 2 {
		t.Fatalf("transactions = %d, want 2 (one per access)", len(txs))
	}
	for i, tx := range txs {
		if tx.Mask() != 0b1111 {
			t.Errorf("coalesced warp mask = %04b, want 1111", tx.Mask())
		}
		if tx.Site() != i {
			t.Errorf("transaction %d names site %d", i, tx.Site())
		}
	}
	if txs[0].Store() || !txs[1].Store() {
		t.Error("modes not preserved")
	}
}

func TestWarpOffsets(t *testing.T) {
	k, allocs := coalescedKernel()
	g := setup(t, k, allocs, nil)
	// Warp 1 of TB 0 covers elements 32..63 -> second 128B line of A.
	txs, _ := g.WarpTransactions(0, 1, 0, kir.InLoop, nil)
	base := g.accesses[0].alloc.Base
	if addr(txs[0]) != base+128 {
		t.Errorf("warp 1 addr = %x, want base+128", addr(txs[0]))
	}
	// TB 3 starts at element 3*64.
	txs, _ = g.WarpTransactions(3, 0, 0, kir.InLoop, nil)
	if addr(txs[0]) != base+3*64*4 {
		t.Errorf("TB 3 addr = %x", addr(txs[0]))
	}
}

func TestStridedDivergentAccess(t *testing.T) {
	// Each thread reads element gid*16: 32 threads span 32 lines.
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "strided", Grid: kir.Dim1(2), Block: kir.Dim1(32), Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: sym.Prod(gid, sym.C(16))},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 2 * 32 * 16 * 4, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	txs, _ := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	// stride 64B: two threads share a 128B line -> 16 transactions.
	if len(txs) != 16 {
		t.Fatalf("transactions = %d, want 16", len(txs))
	}
	for _, tx := range txs {
		// Each line has sectors 0 and 2 touched (offsets 0 and 64).
		if tx.Mask() != 0b0101 {
			t.Errorf("mask = %04b, want 0101", tx.Mask())
		}
	}
}

func TestPredicateGuards(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "guarded", Grid: kir.Dim1(1), Block: kir.Dim1(32), Iters: 1,
		Accesses: []kir.Access{
			// Only threads with tid.x < 8 are active.
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid,
				Pred: sym.Sum(sym.C(8), sym.Neg{X: sym.Tx})},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 4096, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	txs, instrs := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	if instrs != 1 {
		t.Errorf("instrs = %d", instrs)
	}
	if len(txs) != 1 || txs[0].Mask() != 0b0001 {
		t.Fatalf("guarded warp: %d txs, mask %04b", len(txs), txs[0].Mask())
	}
}

func TestOutOfBoundsPredicatedOff(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "oob", Grid: kir.Dim1(2), Block: kir.Dim1(32), Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid},
		},
	}
	// Only 40 elements: TB 1's threads 8..31 fall off the end.
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 40 * 4, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	txs, _ := g.WarpTransactions(1, 0, 0, kir.InLoop, nil)
	total := 0
	for _, tx := range txs {
		total += bits.OnesCount8(tx.Mask()) * 32
	}
	// Elements 32..39 = 32 bytes = one sector.
	if total != 32 {
		t.Errorf("active bytes = %d, want 32", total)
	}
}

func TestPhases(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "phased", Grid: kir.Dim1(1), Block: kir.Dim1(32), Iters: 4,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid, Phase: kir.PreLoop},
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: sym.Sum(gid, sym.M), Phase: kir.InLoop},
			{Array: "A", ElemSize: 4, Mode: kir.Store, Index: gid, Phase: kir.PostLoop},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 4096, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	if g.AccessSites(kir.PreLoop) != 1 || g.AccessSites(kir.InLoop) != 1 || g.AccessSites(kir.PostLoop) != 1 {
		t.Error("AccessSites per phase wrong")
	}
	pre, _ := g.WarpTransactions(0, 0, 0, kir.PreLoop, nil)
	in, _ := g.WarpTransactions(0, 0, 2, kir.InLoop, nil)
	post, _ := g.WarpTransactions(0, 0, 3, kir.PostLoop, nil)
	// The in-loop access at m=2 reads elements 2..33: it spills one sector
	// into the next line, so it needs two transactions.
	if len(pre) != 1 || len(in) != 2 || len(post) != 1 {
		t.Fatalf("phase txs: %d/%d/%d", len(pre), len(in), len(post))
	}
	if in[0].Line() != pre[0].Line() || in[1].Line() != pre[0].Line()+1 {
		t.Errorf("m=2 line split wrong: %x %x vs base %x", addr(in[0]), addr(in[1]), addr(pre[0]))
	}
	if in[1].Mask() != 0b0001 {
		t.Errorf("spill mask = %04b, want 0001", in[1].Mask())
	}
}

func TestIndirectResolution(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "gather", Grid: kir.Dim1(1), Block: kir.Dim1(32), Iters: 1,
		Accesses: []kir.Access{
			{Array: "X", ElemSize: 4, Mode: kir.Load, Index: sym.Ind("perm", gid)},
		},
	}
	allocs := []kir.AllocSpec{{ID: "X", Bytes: 4096, ElemSize: 4}}
	perm := make([]int64, 32)
	for i := range perm {
		perm[i] = int64(31 - i) // reversed
	}
	g := setup(t, k, allocs, map[string][]int64{"perm": perm})
	txs, _ := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	// Reversed permutation still coalesces into the same single full line.
	if len(txs) != 1 || txs[0].Mask() != 0b1111 {
		t.Fatalf("reversed gather: %d txs, mask %04b", len(txs), txs[0].Mask())
	}
}

func TestPartialWarpAtBlockEnd(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	k := &kir.Kernel{
		Name: "partial", Grid: kir.Dim1(1), Block: kir.Dim1(40), Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: gid},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 4096, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	// Warp 1 has only threads 32..39.
	txs, instrs := g.WarpTransactions(0, 1, 0, kir.InLoop, nil)
	if instrs != 1 || len(txs) != 1 {
		t.Fatalf("partial warp: %d txs, %d instrs", len(txs), instrs)
	}
	if txs[0].Mask() != 0b0001 {
		t.Errorf("partial warp mask = %04b", txs[0].Mask())
	}
	// Warp 2 does not exist.
	txs, instrs = g.WarpTransactions(0, 2, 0, kir.InLoop, nil)
	if len(txs) != 0 || instrs != 0 {
		t.Error("nonexistent warp produced work")
	}
}

func Test2DThreadMapping(t *testing.T) {
	// 16x16 block: thread (tx,ty) reads element ty*W + tx, W=64.
	idx := sym.Sum(sym.Prod(sym.Ty, sym.C(64)), sym.Tx)
	k := &kir.Kernel{
		Name: "tile", Grid: kir.Dim2(2, 2), Block: kir.Dim2(16, 16), Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: idx},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 64 * 64 * 4, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	// Warp 0 covers threads 0..31 = rows ty=0 and ty=1 (16 threads each):
	// two 64B half-lines, 256B apart -> 2 transactions.
	txs, _ := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	if len(txs) != 2 {
		t.Fatalf("2D warp txs = %d, want 2", len(txs))
	}
	if txs[0].Mask() != 0b0011 || txs[1].Mask() != 0b0011 {
		t.Errorf("2D masks = %04b %04b, want 0011 each", txs[0].Mask(), txs[1].Mask())
	}
	if addr(txs[1])-addr(txs[0]) != 256 {
		t.Errorf("row distance = %d, want 256", addr(txs[1])-addr(txs[0]))
	}
}

func TestErrorPaths(t *testing.T) {
	k, allocs := coalescedKernel()
	space := page.NewSpace(4096, 4)
	// Missing allocation for C.
	space.MallocManaged("A", allocs[0].Bytes, 4)
	if _, err := New(k, space, nil, 128, 32, 32); err == nil {
		t.Error("missing alloc should error")
	}
	space2 := page.NewSpace(4096, 4)
	for _, a := range allocs {
		space2.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	if _, err := New(k, space2, nil, 100, 32, 32); err == nil {
		t.Error("bad geometry should error")
	}
	if _, err := New(k, space2, nil, 512, 32, 32); err == nil {
		t.Error(">8 sectors should error")
	}
	k.Accesses[1].Phase = kir.PostLoop + 1
	if _, err := New(k, space2, nil, 128, 32, 32); err == nil {
		t.Error("unknown phase should error")
	}
	k.Accesses[1].Phase = kir.InLoop
	many := *k
	many.Accesses = nil
	for range maxSites + 1 {
		many.Accesses = append(many.Accesses, k.Accesses[0])
	}
	if _, err := New(&many, space2, nil, 128, 32, 32); err == nil {
		t.Errorf("%d access sites should error: a word names %d", maxSites+1, maxSites)
	}
	if _, err := New(&kir.Kernel{Name: "most", Grid: kir.Dim1(1), Block: kir.Dim1(32), Accesses: many.Accesses[:maxSites]},
		space2, nil, 128, 32, 32); err != nil {
		t.Errorf("%d access sites: %v", maxSites, err)
	}
	// A word's line number has 47 bits: with 128-byte lines, addresses
	// below 2^54. An array on 2^53-byte pages starts at 2^53.
	for _, c := range []struct {
		size uint64
		fits bool
	}{{1 << 53, true}, {1<<53 + 4, false}} {
		far := page.NewSpace(1<<53, 4)
		far.MallocManaged("A", c.size, 4)
		_, err := New(&kir.Kernel{Name: "far", Grid: kir.Dim1(1), Block: kir.Dim1(32), Accesses: k.Accesses[:1]},
			far, nil, 128, 32, 32)
		if (err == nil) != c.fits {
			t.Errorf("array of %#x bytes at %#x: error %v, want one: %v", c.size, uint64(1<<53), err, !c.fits)
		}
	}
}

func BenchmarkWarpTransactionsCoalesced(b *testing.B) {
	k, allocs := coalescedKernel()
	space := page.NewSpace(4096, 4)
	for _, a := range allocs {
		space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	g, _ := New(k, space, nil, 128, 32, 32)
	buf := make([]Transaction, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = g.WarpTransactions(i%8, i%2, 0, kir.InLoop, buf)
	}
}

// BenchmarkWarpTransactions2D coalesces the warps of a 16×16 tile of a
// row-major matrix: every warp holds two x-runs of 16 lanes, one per
// matrix row, as in sq-gemm, conv and tra.
func BenchmarkWarpTransactions2D(b *testing.B) {
	const width = 256
	row := sym.Sum(sym.Prod(sym.By, sym.BDy), sym.Ty)
	col := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	idx := sym.Sum(sym.Prod(row, sym.P("W")), col)
	k := &kir.Kernel{
		Name: "tile", Grid: kir.Dim2(width/16, width/16), Block: kir.Dim2(16, 16), Iters: 1,
		Params: map[string]int64{"W": width},
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: idx},
			{Array: "C", ElemSize: 4, Mode: kir.Store, Index: idx},
		},
	}
	space := page.NewSpace(4096, 4)
	space.MallocManaged("A", width*width*4, 4)
	space.MallocManaged("C", width*width*4, 4)
	g, err := New(k, space, nil, 128, 32, 32)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Transaction, 0, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = g.WarpTransactions(i%256, i%8, 0, kir.InLoop, buf)
	}
}

func Test3DThreadMapping(t *testing.T) {
	// An (8,2,2) block: linear thread 31 is (tx=7, ty=1, tz=1).
	idx := sym.Sum(sym.Prod(sym.Tz, sym.C(1024)), sym.Prod(sym.Ty, sym.C(64)), sym.Tx)
	k := &kir.Kernel{
		Name: "cube", Grid: kir.Dim1(1), Block: kir.Dim3{X: 8, Y: 2, Z: 2}, Iters: 1,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Load, Index: idx},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 4096 * 4, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	txs, _ := g.WarpTransactions(0, 0, 0, kir.InLoop, nil)
	// Four (ty,tz) groups of 8 consecutive elements: 32B each, at element
	// offsets 0, 64, 1024, 1088.
	if len(txs) != 4 {
		t.Fatalf("3D warp txs = %d, want 4", len(txs))
	}
	base := g.accesses[0].alloc.Base
	want := map[uint64]bool{base: true, base + 256: true, base + 4096: true, base + 4352: true}
	for _, tx := range txs {
		if !want[addr(tx)] {
			t.Errorf("unexpected line %x", addr(tx)-base)
		}
	}
}

func TestPostLoopUsesFinalIteration(t *testing.T) {
	// A post-loop store indexed by m must evaluate at the last iteration.
	k := &kir.Kernel{
		Name: "post", Grid: kir.Dim1(1), Block: kir.Dim1(32), Iters: 5,
		Accesses: []kir.Access{
			{Array: "A", ElemSize: 4, Mode: kir.Store, Phase: kir.PostLoop,
				Index: sym.Sum(sym.Prod(sym.M, sym.C(32)), sym.Tx)},
		},
	}
	allocs := []kir.AllocSpec{{ID: "A", Bytes: 4096, ElemSize: 4}}
	g := setup(t, k, allocs, nil)
	txs, _ := g.WarpTransactions(0, 0, k.EffIters()-1, kir.PostLoop, nil)
	if len(txs) != 1 {
		t.Fatalf("post-loop txs = %d", len(txs))
	}
	if got := addr(txs[0]) - g.accesses[0].alloc.Base; got != 4*32*4 {
		t.Errorf("post-loop line offset = %d, want %d", got, 4*32*4)
	}
}

// BenchmarkNew builds the generators of every launch of a regular and an
// irregular workload: the per-launch cost of compiling each access.
func BenchmarkNew(b *testing.B) {
	for _, name := range []string{"sq-gemm", "pagerank"} {
		spec, err := kernels.ByName(name, 16)
		if err != nil {
			b.Fatal(err)
		}
		w := spec.W
		space := page.NewSpace(4096, 4)
		for _, a := range w.Allocs {
			space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, l := range w.Launches {
					if _, err := New(l.Kernel, space, w.Tables, 128, 32, 32); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
