package trace

import (
	"math"
	"math/rand"
	"testing"

	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/mem/page"
	sym "ladm/internal/symbolic"
)

// The warp evaluator must agree bit for bit with symbolic.Eval, the
// tree-walking definition, on every lane. These tests keep a per-lane
// Eval reference and compare against it.

// laneEnv binds thread t of threadblock tb the way the generator did
// before the warp evaluator: one div/mod chain per lane over Eval's Env.
func laneEnv(k *kir.Kernel, tables map[string][]int64, tb, t, m int) *sym.Env {
	env := k.BaseEnv()
	env.Resolve = (&kir.Workload{Tables: tables}).Resolver()
	bX, bY := k.Grid.X, max(k.Grid.Y, 1)
	env.Bid = [3]int64{int64(tb % bX), int64((tb / bX) % bY), int64(tb / (bX * bY))}
	blkX, blkY := k.Block.X, max(k.Block.Y, 1)
	env.Tid = [3]int64{int64(t % blkX), int64((t / blkX) % blkY), int64(t / (blkX * blkY))}
	env.M = int64(m)
	return &env
}

// refTx is a transaction as the reference generator builds it: the
// fields a Transaction word packs, unpacked.
type refTx struct {
	addr  uint64 // line-aligned
	mask  uint8
	site  int
	store bool
}

// word packs r by the layout Transaction documents, independently of
// the generator's packing.
func (r refTx) word(lineBytes int) Transaction {
	w := r.addr/uint64(lineBytes)<<17 | uint64(r.site)<<9 | uint64(r.mask)
	if r.store {
		w |= 1 << 8
	}
	return Transaction(w)
}

// refWarp is the reference generator: per-lane Eval and a linear scan
// over the site's transactions for coalescing.
func refWarp(k *kir.Kernel, space *page.Space, tables map[string][]int64,
	lineBytes, sectorBytes, warpSize, tb, warp, m int, phase kir.Phase) ([]refTx, int) {
	var out []refTx
	lo := warp * warpSize
	hi := min(lo+warpSize, k.Block.Count())
	if lo >= hi {
		return nil, 0
	}
	instrs := 0
	for ai := range k.Accesses {
		acc := &k.Accesses[ai]
		if acc.Phase != phase {
			continue
		}
		instrs++
		alloc := space.Lookup(acc.Array)
		index, pred := k.SubstitutedIndex(ai), k.SubstitutedPred(ai)
		start := len(out)
		for t := lo; t < hi; t++ {
			env := laneEnv(k, tables, tb, t, m)
			if pred != nil && sym.Eval(pred, env) <= 0 {
				continue
			}
			idx := sym.Eval(index, env)
			if idx < 0 || idx >= alloc.Elems() {
				continue
			}
			addr, bytes := alloc.ElemAddr(idx), acc.ElemSize
			for bytes > 0 {
				line := addr &^ uint64(lineBytes-1)
				off := int(addr - line)
				span := min(lineBytes-off, bytes)
				var mask uint8
				for s := off / sectorBytes; s <= (off+span-1)/sectorBytes; s++ {
					mask |= 1 << s
				}
				found := false
				for i := start; i < len(out); i++ {
					if out[i].addr == line {
						out[i].mask |= mask
						found = true
						break
					}
				}
				if !found {
					out = append(out, refTx{addr: line, mask: mask, site: ai, store: acc.Mode == kir.Store})
				}
				addr += uint64(span)
				bytes -= span
			}
		}
	}
	return out, instrs
}

// sameTransactions compares generated words with the reference's
// transactions both ways: each word decodes to the reference's fields,
// and each reference transaction packs to the word.
func sameTransactions(t *testing.T, what string, lineBytes int, got []Transaction, want []refTx) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transactions, reference %d", what, len(got), len(want))
	}
	for i, w := range got {
		dec := refTx{addr: w.Line() * uint64(lineBytes), mask: w.Mask(), site: w.Site(), store: w.Store()}
		if dec != want[i] || want[i].word(lineBytes) != w {
			t.Fatalf("%s: transaction %d = %#x (%+v), reference %+v packed %#x",
				what, i, uint64(w), dec, want[i], uint64(want[i].word(lineBytes)))
		}
	}
}

// checkWarp compares one WarpTransactions call against the reference.
func checkWarp(t *testing.T, what string, g *Generator, space *page.Space, tables map[string][]int64,
	tb, warp, m int, phase kir.Phase) {
	t.Helper()
	got, gn := g.WarpTransactions(tb, warp, m, phase, nil)
	want, wn := refWarp(g.k, space, tables, int(g.lineBytes), int(g.sectorBytes), g.warpSize, tb, warp, m, phase)
	if gn != wn {
		t.Fatalf("%s: %d instructions, reference %d", what, gn, wn)
	}
	sameTransactions(t, what, int(g.lineBytes), got, want)
}

// TestWarpTransactionsMatchEvalRegistry runs every registered workload,
// at a small and a large scale, through both generators on sampled
// (threadblock, warp, iteration, phase) points.
func TestWarpTransactionsMatchEvalRegistry(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, scale := range []int{8, 256} {
		for _, spec := range kernels.All(scale) {
			w := spec.W
			space := page.NewSpace(4096, 4)
			for _, a := range w.Allocs {
				space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
			}
			for li, l := range w.Launches {
				k := l.Kernel
				g, err := New(k, space, w.Tables, 128, 32, 32)
				if err != nil {
					t.Fatal(err)
				}
				tbs := k.Grid.Count()
				warps := k.WarpsPerTB(32)
				for s := 0; s < 12; s++ {
					tb, warp := r.Intn(tbs), r.Intn(warps)
					switch s {
					case 0:
						tb, warp = 0, 0
					case 1:
						tb, warp = tbs-1, warps-1
					}
					iters := k.EffItersFor(tb)
					for _, phase := range []kir.Phase{kir.PreLoop, kir.InLoop, kir.PostLoop} {
						m := 0
						switch {
						case phase == kir.PostLoop:
							m = iters - 1
						case phase == kir.InLoop && s > 0:
							m = r.Intn(iters)
						}
						checkWarp(t, w.Name+"/"+k.Name+"/"+string(rune('0'+li)), g, space, w.Tables, tb, warp, m, phase)
					}
				}
			}
		}
	}
}

// TestLineIndexSpillAndStraddle coalesces warps whose elements straddle
// lines or span several, enough to fill the line index past its limit.
func TestLineIndexSpillAndStraddle(t *testing.T) {
	for _, elem := range []int{4, 12, 160, 512, 640} {
		k := &kir.Kernel{
			Name: "wide", Grid: kir.Dim1(4), Block: kir.Dim1(64), Iters: 1,
			Accesses: []kir.Access{
				{Array: "A", ElemSize: elem, Mode: kir.Load, Index: sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)},
				// Reversed and strided: lines arrive out of order.
				{Array: "A", ElemSize: elem, Mode: kir.Store, Index: sym.Prod(sym.C(3), sym.Sum(sym.C(255), sym.Neg{X: sym.Tx}))},
				// Lane pairs share an element: the second lane of a pair
				// revisits lines that may already have spilled.
				{Array: "A", ElemSize: elem, Mode: kir.Load, Index: sym.Quot(sym.Tx, sym.C(2))},
			},
		}
		space := page.NewSpace(4096, 4)
		space.MallocManaged("A", uint64(4*64*elem*3), elem)
		g, err := New(k, space, nil, 128, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		spilled := false
		for tb := 0; tb < 4; tb++ {
			for warp := 0; warp < 2; warp++ {
				checkWarp(t, "wide", g, space, nil, tb, warp, 0, kir.InLoop)
				want, _ := refWarp(k, space, nil, 128, 32, 32, tb, warp, 0, kir.InLoop)
				lines := map[int]int{}
				for _, tx := range want {
					lines[tx.site]++
					spilled = spilled || lines[tx.site] > len(g.lines.slots)/2
				}
			}
		}
		if elem >= 512 && !spilled {
			t.Errorf("%d-byte elements never spilled the line index", elem)
		}
	}
}

// TestLineIndexGenerationWrap runs a site across the wrap of the
// generation counter. The slots stamped by the first sites after a fresh
// start carry the generations the wrapped counter reuses, with the same
// lines but other output positions: none of them may match.
func TestLineIndexGenerationWrap(t *testing.T) {
	k, allocs := coalescedKernel()
	space := page.NewSpace(4096, 4)
	for _, a := range allocs {
		space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	g, err := New(k, space, nil, 128, 32, 32)
	if err != nil {
		t.Fatal(err)
	}
	g.WarpTransactions(0, 0, 0, kir.InLoop, nil) // stamps generations 1 and 2
	g.lines.gen = math.MaxUint32
	prefix := make([]Transaction, 3)
	got, _ := g.WarpTransactions(0, 0, 0, kir.InLoop, prefix)
	want, _ := refWarp(k, space, nil, 128, 32, 32, 0, 0, 0, kir.InLoop)
	for i := range prefix {
		if got[i] != 0 {
			t.Fatalf("stale slot merged into caller's transaction %d: %+v", i, got[i])
		}
	}
	sameTransactions(t, "after wrap", 128, got[len(prefix):], want)
	if g.lines.gen != 2 {
		t.Fatalf("generation = %d, want 2 after wrapping", g.lines.gen)
	}
}

// fuzzBytes draws choices from a fuzzer's input; an exhausted input
// reads zeros, so every input decodes to some tree.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) intn(n int) int { return int(b.next()) % n }

func (b *fuzzBytes) int64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.next())
	}
	return int64(v)
}

// constant draws small values, values near the int64 limits, and
// arbitrary ones.
func (b *fuzzBytes) constant() int64 {
	switch b.intn(4) {
	case 0:
		return int64(b.intn(21) - 10)
	case 1:
		return math.MaxInt64 - int64(b.intn(4))
	case 2:
		return math.MinInt64 + int64(b.intn(4))
	default:
		return b.int64()
	}
}

var fuzzTables = []string{"t0", "t1", "absent"}

// tree decodes an index expression over every prime variable, two
// parameters and the fuzz tables, with Div/Mod by arbitrary (zero,
// negative, thread-dependent) denominators.
func (b *fuzzBytes) tree(depth int) sym.Expr {
	if depth <= 0 {
		switch b.intn(5) {
		case 0:
			return sym.C(b.constant())
		case 1:
			return sym.P([]string{"A", "B", "unset"}[b.intn(3)])
		case 2:
			return sym.V(sym.VarKind(b.intn(int(sym.TidZ) + 1)))
		default:
			return sym.V(sym.VarKind(b.intn(int(sym.Induction) + 1)))
		}
	}
	switch b.intn(9) {
	case 0, 1:
		ops := make(sym.Add, 2+b.intn(3))
		for i := range ops {
			ops[i] = b.tree(depth - 1)
		}
		return ops
	case 2, 3:
		ops := make(sym.Mul, 2+b.intn(2))
		for i := range ops {
			ops[i] = b.tree(depth - 1)
		}
		return ops
	case 4:
		return sym.Neg{X: b.tree(depth - 1)}
	case 5:
		return sym.Quot(b.tree(depth-1), b.tree(depth-1))
	case 6:
		return sym.Rem(b.tree(depth-1), b.tree(depth-1))
	case 7:
		// tid.x·tid.y or tid.x·tid.x times a subtree.
		return sym.Prod(sym.Tx, []sym.Expr{sym.Ty, sym.Tx}[b.intn(2)], b.tree(depth-1))
	default:
		return sym.Ind(fuzzTables[b.intn(len(fuzzTables))], b.tree(depth-1))
	}
}

// checkWarpEval decodes a kernel geometry, a launch point and an
// expression from data and compares the warp evaluator with Eval on
// every lane.
func checkWarpEval(t *testing.T, data []byte) {
	b := fuzzBytes(data)
	dim := func() int { return 1 + b.intn(9) }
	k := &kir.Kernel{
		Name:   "fuzz",
		Grid:   kir.Dim3{X: dim(), Y: dim(), Z: dim()},
		Block:  kir.Dim3{X: dim(), Y: dim(), Z: dim()},
		Params: map[string]int64{"A": b.constant(), "B": b.constant()},
	}
	tables := map[string][]int64{"t0": {3, -7, 11, 0, 42}, "t1": {b.constant()}}
	warpSize := 1 + b.intn(32)
	tb := b.intn(k.Grid.Count())
	m := int(b.int64() % 1000)
	e := b.tree(1 + b.intn(4))

	consts := k.BaseEnv()
	bld := evalBuilder{consts: &consts, tables: tables, width: warpSize}
	ev := bld.expr(e)
	tids := tidTable(k.Block)
	bX, bY := k.Grid.X, k.Grid.Y
	w := warpEnv{vars: [numSlots]int64{
		slotBidX: int64(tb % bX),
		slotBidY: int64((tb / bX) % bY),
		slotBidZ: int64(tb / (bX * bY)),
		slotM:    int64(m),
	}}
	out := make([]int64, warpSize)
	for lo := 0; lo < len(tids); lo += warpSize {
		hi := min(lo+warpSize, len(tids))
		w.tids = tids[lo:hi]
		got := ev.lanes(&w, out)
		for l := range got {
			want := sym.Eval(e, laneEnv(k, tables, tb, lo+l, m))
			if got[l] != want {
				t.Fatalf("%v at block %v tb %d thread %d m %d: warp %d, Eval %d",
					e, k.Block, tb, lo+l, m, got[l], want)
			}
		}
	}
}

func FuzzWarpEval(f *testing.F) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 16+r.Intn(64))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // deep enough; bounds Normalize's expansion
		}
		checkWarpEval(t, data)
	})
}

// TestWarpEvalAgreesWithEvalRandom is FuzzWarpEval's property over a
// fixed random corpus, so plain `go test` covers it too.
func TestWarpEvalAgreesWithEvalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 8+r.Intn(120))
		r.Read(data)
		checkWarpEval(t, data)
	}
}

// TestWarpEvalMatchesEval pins the evaluator on the index shapes the
// workloads use: affine global ids, tiled 2-D indices, Div/Mod and
// Indirect atoms that read threadIdx, and nonlinear thread terms.
func TestWarpEvalMatchesEval(t *testing.T) {
	k := &kir.Kernel{
		Name: "shapes", Grid: kir.Dim2(5, 3), Block: kir.Dim2(16, 4),
		Params: map[string]int64{"WIDTH": 512, "TILE": 16},
	}
	tables := map[string][]int64{"t": {9, 8, 7, 6, 5, 4, 3, 2, 1}}
	exprs := []sym.Expr{
		sym.C(7),
		sym.Tx, sym.Ty, sym.Tz, sym.Bx, sym.By, sym.BDx, sym.BDy, sym.GDx, sym.GDy, sym.M, sym.P("WIDTH"),
		sym.Sum(sym.Prod(sym.By, sym.BDy, sym.P("WIDTH")), sym.Prod(sym.Bx, sym.BDx), sym.Tx),
		sym.Neg{X: sym.Sum(sym.Tx, sym.M)},
		sym.Quot(sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx), sym.C(4)),
		sym.Rem(sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx), sym.C(7)),
		sym.Rem(sym.Sum(sym.Tx, sym.Ind("t", sym.M)), sym.Sum(sym.Ty, sym.C(-2))),
		sym.Ind("t", sym.Sum(sym.Tx, sym.M)),
		sym.Ind("t", sym.Sum(sym.Ind("t", sym.Ty), sym.Prod(sym.C(-3), sym.Bx))),
		sym.Sum(sym.Prod(sym.M, sym.P("TILE"), sym.BDx, sym.GDx), sym.Prod(sym.Ty, sym.BDx, sym.GDx), sym.Tx),
		sym.Prod(sym.Tx, sym.Ty, sym.Sum(sym.Bx, sym.C(1))),
		sym.Prod(sym.Tx, sym.Tx, sym.Tx),
		sym.Quot(sym.P("WIDTH"), sym.P("TILE")),
		sym.Quot(sym.Tx, sym.C(0)),
	}
	consts := k.BaseEnv()
	bld := evalBuilder{consts: &consts, tables: tables, width: 32}
	tids := tidTable(k.Block)
	out := make([]int64, 32)
	for _, e := range exprs {
		ev := bld.expr(e)
		for tb := 0; tb < k.Grid.Count(); tb += 4 {
			for _, m := range []int{0, 3} {
				w := warpEnv{vars: [numSlots]int64{int64(tb % 5), int64(tb / 5), 0, int64(m)}}
				for lo := 0; lo < len(tids); lo += 32 {
					w.tids = tids[lo : lo+32]
					for l, got := range ev.lanes(&w, out) {
						if want := sym.Eval(e, laneEnv(k, tables, tb, lo+l, m)); got != want {
							t.Fatalf("%v tb %d thread %d m %d: warp %d, Eval %d", e, tb, lo+l, m, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLaneAffineSplit checks the split itself: a global id is one base
// plus a tid.x coefficient, and only thread-dependent opaque atoms
// evaluate per lane.
func TestLaneAffineSplit(t *testing.T) {
	k := &kir.Kernel{Name: "split", Grid: kir.Dim1(8), Block: kir.Dim1(64)}
	consts := k.BaseEnv()
	bld := evalBuilder{consts: &consts, width: 32}
	gid := bld.expr(sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx))
	if len(gid.lane) != 0 || gid.linK != [3]int64{1, 0, 0} || len(gid.inv) != 1 || gid.inv[0].coef != 64 {
		t.Errorf("gid split = %+v, want base 64·bid.x and tid.x coefficient 1", gid)
	}
	ind := bld.expr(sym.Sum(sym.Ind("t", sym.Bx), sym.Ind("t", sym.Tx)))
	if len(ind.inv) != 1 || len(ind.lane) != 1 {
		t.Errorf("indirect split = %+v, want one hoisted and one per-lane atom", ind)
	}
	if c := bld.expr(sym.Quot(sym.BDx, sym.C(16))); !c.constant || c.konst != 4 {
		t.Errorf("bDim.x/16 = %+v, want the constant 4", c)
	}
}

// TestClosedFormCoverage pins which sites coalesce in closed form:
// every access site of the regular kernels below, at a small and a
// large scale. A kernel edit that drops one of them to the per-lane
// path fails here, not only in a profile.
func TestClosedFormCoverage(t *testing.T) {
	for _, scale := range []int{8, 256} {
		for _, name := range []string{"fwt-k2", "tra", "conv", "hotspot3d", "sq-gemm"} {
			spec, err := kernels.ByName(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			w := spec.W
			space := page.NewSpace(4096, 4)
			for _, a := range w.Allocs {
				space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
			}
			for _, l := range w.Launches {
				g, err := New(l.Kernel, space, w.Tables, 128, 32, 32)
				if err != nil {
					t.Fatal(err)
				}
				for ai := range g.accesses {
					if !g.accesses[ai].runs {
						t.Errorf("%s at scale %d: kernel %s access %d (%s, block %v) takes the per-lane path",
							name, scale, l.Kernel.Name, ai, l.Kernel.Accesses[ai].Array, l.Kernel.Block)
					}
				}
			}
		}
	}
}

// checkWarpTransactions decodes a kernel of affine access sites, one
// launch point and a line geometry from data, and compares every warp's
// WarpTransactions with refWarp, round-tripping every packed word
// (sameTransactions). The shapes aim at the closed form's
// edges: block rows that split warps into runs or do not, tid.x
// coefficients of 1 and of other values, elements that straddle lines,
// allocations that leave runs partly out of bounds, and predicates that
// are absent, thread-free or per-lane. It returns the number of sites
// it checked, and how many of them coalesce in closed form.
func checkWarpTransactions(t *testing.T, data []byte) (sites, closed int) {
	b := fuzzBytes(data)
	rows := []int{32, 16, 8, 64, 1, 2, 4, 96, 3, 12, 24, 48}
	k := &kir.Kernel{
		Name:   "fuzz",
		Grid:   kir.Dim3{X: 1 + b.intn(4), Y: 1 + b.intn(3), Z: 1 + b.intn(2)},
		Block:  kir.Dim3{X: rows[b.intn(len(rows))], Y: 1 + b.intn(4), Z: 1 + b.intn(2)},
		Params: map[string]int64{"N": int64(b.intn(16)) - 4},
		Iters:  8,
	}
	warpSize := []int{32, 16, 8, 1 + b.intn(32)}[b.intn(4)]
	geom := [][2]int{{128, 32}, {64, 32}, {256, 32}, {128, 16}, {32, 32}}[b.intn(5)]
	coef := func() sym.Expr {
		switch b.intn(8) {
		case 0:
			return sym.C(0)
		case 1:
			return sym.C(-1 - int64(b.intn(3)))
		case 2:
			return sym.C(2 + int64(b.intn(3)))
		case 3:
			return sym.C(1 << (20 + b.intn(40)))
		case 4:
			return sym.C(b.constant())
		default:
			return sym.C(1)
		}
	}
	threads := int64(k.Grid.Count() * k.Block.Count())
	elemSizes := []int{4, 12, 160}
	allocs := make([]kir.AllocSpec, 2)
	for i := range allocs {
		es := elemSizes[b.intn(len(elemSizes))]
		elems := 1 + int64(b.intn(int(2*threads)+64))
		allocs[i] = kir.AllocSpec{ID: string(rune('A' + i)), Bytes: uint64(elems) * uint64(es), ElemSize: es}
	}
	for n := 1 + b.intn(4); n > 0; n-- {
		alloc := allocs[b.intn(len(allocs))]
		es := alloc.ElemSize
		if b.intn(8) == 0 {
			es = elemSizes[b.intn(len(elemSizes))] // may disagree with the allocation
		}
		tyCoef := sym.Expr(sym.BDx)
		if b.intn(3) == 0 {
			tyCoef = coef()
		}
		acc := kir.Access{
			Array:    alloc.ID,
			ElemSize: es,
			Mode:     kir.AccessMode(b.intn(2)),
			Phase:    kir.Phase(b.intn(int(kir.PostLoop) + 1)),
			Index: sym.Sum(
				sym.C(int64(b.intn(64))-32),
				sym.Prod([]sym.Expr{sym.BDx, sym.C(int64(k.Block.Count())), coef()}[b.intn(3)], sym.Bx),
				sym.Prod(coef(), sym.M),
				sym.Prod([]sym.Expr{sym.C(1), coef()}[b.intn(2)], sym.Tx),
				sym.Prod(tyCoef, sym.Ty),
				sym.Prod(coef(), sym.Tz)),
		}
		switch b.intn(4) {
		case 1: // thread-free: on for some iterations and blocks only
			acc.Pred = sym.Sum(sym.P("N"), sym.Neg{X: sym.M}, sym.By)
		case 2: // per-lane
			acc.Pred = sym.Sum(sym.C(int64(b.intn(40))), sym.Neg{X: sym.Tx})
		}
		k.Accesses = append(k.Accesses, acc)
	}
	space := page.NewSpace(4096, 4)
	for _, a := range allocs {
		space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	g, err := New(k, space, nil, geom[0], geom[1], warpSize)
	if err != nil {
		t.Fatal(err)
	}
	tb, m := b.intn(k.Grid.Count()), b.intn(k.Iters)
	for warp := 0; warp < k.WarpsPerTB(warpSize); warp++ {
		for _, phase := range []kir.Phase{kir.PreLoop, kir.InLoop, kir.PostLoop} {
			checkWarp(t, "fuzz", g, space, nil, tb, warp, m, phase)
		}
	}
	for ai := range g.accesses {
		if g.accesses[ai].runs {
			closed++
		}
	}
	return len(g.accesses), closed
}

func FuzzWarpTransactions(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 24+r.Intn(64))
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWarpTransactions(t, data)
	})
}

// TestWarpTransactionsRandom is FuzzWarpTransactions' property over a
// fixed random corpus, so plain `go test` covers it too. The corpus
// must reach the closed form often, or it tests only the per-lane path.
func TestWarpTransactionsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sites, closed := 0, 0
	for i := 0; i < 1500; i++ {
		data := make([]byte, 24+r.Intn(96))
		r.Read(data)
		s, c := checkWarpTransactions(t, data)
		sites, closed = sites+s, closed+c
	}
	if closed < sites/8 {
		t.Errorf("%d of %d sites coalesce in closed form, want at least an eighth", closed, sites)
	}
	t.Logf("%d of %d sites coalesce in closed form", closed, sites)
}
