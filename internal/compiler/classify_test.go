package compiler

import (
	"testing"

	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
)

// gemmKernel reconstructs the paper's Figure 6 tiled matrix multiply:
// TILE=16, square matrices of WIDTH = gridDim.x * blockDim.x.
func gemmKernel() *kir.Kernel {
	tile := sym.C(16)
	width := sym.Prod(sym.GDx, sym.BDx)
	row := sym.Sum(sym.Prod(sym.By, tile), sym.Ty)
	col := sym.Sum(sym.Prod(sym.Bx, tile), sym.Tx)
	return &kir.Kernel{
		Name:  "sgemm",
		Grid:  kir.Dim2(64, 64),
		Block: kir.Dim2(16, 16),
		Iters: 64,
		Accesses: []kir.Access{
			// A[Row*WIDTH + m*TILE + tx]
			{Array: "A", ElemSize: 4, Mode: kir.Load,
				Index: sym.Sum(sym.Prod(row, width), sym.Prod(sym.M, tile), sym.Tx)},
			// B[(m*TILE + ty)*WIDTH + Col]
			{Array: "B", ElemSize: 4, Mode: kir.Load,
				Index: sym.Sum(sym.Prod(sym.Sum(sym.Prod(sym.M, tile), sym.Ty), width), col)},
			// C[Row*WIDTH + Col]
			{Array: "C", ElemSize: 4, Mode: kir.Store, Phase: kir.PostLoop,
				Index: sym.Sum(sym.Prod(row, width), col)},
		},
	}
}

// TestFigure6Classification is the paper's own worked example: A is
// row-locality horizontally shared (row 2), B is column-locality
// vertically shared (row 5), and C has no locality (row 1).
func TestFigure6Classification(t *testing.T) {
	k := gemmKernel()
	a := ClassifyAccess(k, 0)
	if a.Type != RowHorizontal {
		t.Errorf("A classified %v, want RowHorizontal (inv=%v var=%v)", a.Type, a.Invariant, a.Variant)
	}
	b := ClassifyAccess(k, 1)
	if b.Type != ColVertical {
		t.Errorf("B classified %v, want ColVertical (inv=%v var=%v)", b.Type, b.Invariant, b.Variant)
	}
	c := ClassifyAccess(k, 2)
	if c.Type != NoLocality {
		t.Errorf("C classified %v, want NoLocality", c.Type)
	}
	if c.HasIndirect {
		t.Error("C misreported as indirect")
	}

	// Strides: A moves 16 elements per iteration; B moves 16 rows.
	env := k.BaseEnv()
	if got := a.StrideElems(&env); got != 16 {
		t.Errorf("A stride = %d, want 16", got)
	}
	if got := b.StrideElems(&env); got != 16*64*16 {
		t.Errorf("B stride = %d, want %d", got, 16*64*16)
	}

	// Table row numbers per the paper.
	if a.Type.TableRow() != 2 || b.Type.TableRow() != 5 || c.Type.TableRow() != 1 {
		t.Errorf("table rows: A=%d B=%d C=%d", a.Type.TableRow(), b.Type.TableRow(), c.Type.TableRow())
	}
	// Scheduler bindings: A favors row binding, B favors column binding.
	if !a.Type.RowBinding() || a.Type.ColBinding() {
		t.Error("A binding flags wrong")
	}
	if !b.Type.ColBinding() || b.Type.RowBinding() {
		t.Error("B binding flags wrong")
	}
	if !b.Type.VerticalMotion() || a.Type.VerticalMotion() {
		t.Error("motion flags wrong")
	}
}

func TestVecAddNoLocality(t *testing.T) {
	// C[i] = A[i] + B[i], i = bx*bDim.x + tx: loop free, 1D.
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	c := Classify(gid, false)
	if c.Type != NoLocality {
		t.Errorf("vecadd classified %v", c.Type)
	}
	if !c.Stride.IsZero() {
		t.Errorf("loop-free stride = %v, want 0", c.Stride)
	}
}

func TestGridStrideLoop(t *testing.T) {
	// ScalarProd-style: A[bx*bDim.x + tx + m*bDim.x*gDim.x].
	idx := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx, sym.Prod(sym.M, sym.BDx, sym.GDx))
	c := Classify(idx, false)
	if c.Type != NoLocality {
		t.Fatalf("grid-stride classified %v", c.Type)
	}
	env := &sym.Env{BDim: [3]int64{256, 1, 1}, GDim: [3]int64{2048, 1, 1}}
	if got := c.StrideElems(env); got != 256*2048 {
		t.Errorf("stride = %d, want %d", got, 256*2048)
	}
}

func TestITLClassification(t *testing.T) {
	// Per-thread streaming: f[tid*NF + m] (kmeans-style, NF loop-invariant).
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	idx := sym.Sum(sym.Prod(gid, sym.P("NF")), sym.M)
	c := Classify(idx, false)
	if c.Type != IntraThread {
		t.Errorf("kmeans feature walk classified %v", c.Type)
	}
	// CSR neighbor walk: cols[rowptr[v] + m] — indirect base plus m.
	idx = sym.Sum(sym.Ind("rowptr", gid), sym.M)
	c = Classify(idx, false)
	if c.Type != IntraThread {
		t.Errorf("CSR neighbor walk classified %v", c.Type)
	}
	if !c.HasIndirect {
		t.Error("CSR walk should report indirect component")
	}
}

func TestUnclassified(t *testing.T) {
	gid := sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx)
	cases := map[string]sym.Expr{
		// Pure data-dependent gather: X[Y[tid]].
		"gather": sym.Ind("Y", gid),
		// Data-dependent with loop inside the indirection.
		"indirect loop": sym.Ind("Y", sym.Sum(gid, sym.M)),
		// Quadratic in m.
		"m squared": sym.Sum(gid, sym.Prod(sym.M, sym.M)),
		// Modulo-wrapped index with no block component visible.
		"modulo": sym.Rem(sym.Sum(sym.Tx, sym.M), sym.P("N")),
	}
	for name, idx := range cases {
		if c := Classify(idx, false); c.Type != Unclassified {
			t.Errorf("%s classified %v, want unclassified", name, c.Type)
		}
	}
}

func TestRowHorizontalVariants(t *testing.T) {
	width := sym.Prod(sym.GDx, sym.BDx)
	// Row-shared, horizontal motion (row 2): matches Figure 6's A.
	idx := sym.Sum(sym.Prod(sym.By, width), sym.Prod(sym.M, sym.C(32)), sym.Tx)
	if c := Classify(idx, true); c.Type != RowHorizontal {
		t.Errorf("row 2 pattern classified %v", c.Type)
	}
	// Col-shared, horizontal motion (row 3): invariant has bx only.
	idx = sym.Sum(sym.Prod(sym.Bx, sym.C(16)), sym.Tx, sym.Prod(sym.M, sym.C(32)))
	if c := Classify(idx, true); c.Type != ColHorizontal {
		t.Errorf("row 3 pattern classified %v", c.Type)
	}
	// Row-shared, vertical motion (row 4): variant contains gDim.x.
	idx = sym.Sum(sym.Prod(sym.By, width), sym.Tx, sym.Prod(sym.M, width))
	if c := Classify(idx, true); c.Type != RowVertical {
		t.Errorf("row 4 pattern classified %v", c.Type)
	}
}

func TestSharedByAllStartsRowShared(t *testing.T) {
	// Invariant free of both block indices (e.g. a broadcast filter that
	// all threadblocks stream): still exploitable, treated as row-shared.
	idx := sym.Sum(sym.Tx, sym.Prod(sym.M, sym.C(64)))
	c := Classify(idx, true)
	if c.Type != RowHorizontal {
		t.Errorf("broadcast stream classified %v", c.Type)
	}
	// Without any loop motion it stays unclassified (nothing to bind).
	if c := Classify(sym.Tx, true); c.Type != Unclassified {
		t.Errorf("pure tid access classified %v", c.Type)
	}
}

func Test1DGridNoSharing(t *testing.T) {
	// Sharing rows/cols requires a 2D grid; the same expression in a 1D
	// grid with by absent from invariant (only tx) is unclassified.
	idx := sym.Sum(sym.Tx, sym.Prod(sym.M, sym.C(64)))
	if c := Classify(idx, false); c.Type != Unclassified {
		t.Errorf("1D non-bx access classified %v", c.Type)
	}
}

func TestDatablockBytes(t *testing.T) {
	k := gemmKernel()
	// A's datablock at m=0: threads span Row in [0,16) x WIDTH=1024 plus
	// tx in [0,16): span = 15*1024 + 15 + 1 elements.
	want := uint64(15*1024+15+1) * 4
	if got := DatablockBytes(k, 0); got != want {
		t.Errorf("A datablock = %d, want %d", got, want)
	}
	// VecAdd-style: block of 128 consecutive floats = 512B.
	vec := &kir.Kernel{
		Name: "vecadd", Grid: kir.Dim1(64), Block: kir.Dim1(128), Iters: 1,
		Accesses: []kir.Access{{
			Array: "A", ElemSize: 4, Mode: kir.Load,
			Index: sym.Sum(sym.Prod(sym.Bx, sym.BDx), sym.Tx),
		}},
	}
	if got := DatablockBytes(vec, 0); got != 512 {
		t.Errorf("vecadd datablock = %d, want 512", got)
	}
}

func TestMinTBBatch(t *testing.T) {
	cases := []struct {
		page, db uint64
		want     int
	}{
		{4096, 512, 8},  // the paper's NL case: page/datablock
		{4096, 4096, 1}, // exactly one block per page
		{4096, 8192, 1}, // huge datablocks clamp to 1
		{4096, 0, 1},    // degenerate clamps
	}
	for _, tc := range cases {
		if got := MinTBBatch(tc.page, tc.db); got != tc.want {
			t.Errorf("MinTBBatch(%d,%d) = %d, want %d", tc.page, tc.db, got, tc.want)
		}
	}
}

func TestInterleaveGranularity(t *testing.T) {
	// Equation 1: stride 2 MB over 16 nodes = 128 KB = 32 pages.
	if got := InterleaveGranularityPages(2<<20, 16, 4096); got != 32 {
		t.Errorf("granularity = %d pages, want 32", got)
	}
	// Sub-page stride clamps to one page.
	if got := InterleaveGranularityPages(512, 16, 4096); got != 1 {
		t.Errorf("sub-page granularity = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero nodes should panic")
		}
	}()
	InterleaveGranularityPages(4096, 0, 4096)
}

func TestLocalityTypeStrings(t *testing.T) {
	for ty, want := range map[LocalityType]string{
		NoLocality: "NL", IntraThread: "ITL", Unclassified: "unclassified",
		RowHorizontal: "RCL-row-hshare", ColVertical: "RCL-col-vshare",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
	if !RowHorizontal.IsRCL() || NoLocality.IsRCL() || IntraThread.IsRCL() {
		t.Error("IsRCL misclassifies")
	}
}

// FuzzClassify runs Algorithm 1 on every index the parser accepts, for
// 1D and 2D grids: classification must never panic. The seeds are
// FuzzParse's.
func FuzzClassify(f *testing.F) {
	for _, s := range []string{
		"(by*16+ty)*WIDTH + m*16 + tx",
		"cols[rowptr[v] + m]",
		"(gid + off) % N * 19 + m",
		"-tx / (ty - ty) % 0",
		"(tx+1)*(ty+1)*(tz+1)*(bx+1)",
		"9223372036854775807 * tx + -9223372036854775807 - 1",
		"a[b[c[tx*tx]]]",
		"((",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 80 {
			return // Normalize expands products of sums: keep inputs small
		}
		e, err := sym.Parse(src)
		if err != nil {
			return
		}
		Classify(e, false)
		Classify(e, true)
	})
}
