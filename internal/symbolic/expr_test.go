package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testEnv() *Env {
	return &Env{
		Tid:    [3]int64{3, 2, 0},
		Bid:    [3]int64{5, 7, 0},
		BDim:   [3]int64{16, 8, 1},
		GDim:   [3]int64{32, 24, 1},
		M:      4,
		Params: map[string]int64{"WIDTH": 512, "TILE": 16},
	}
}

func TestEvalBasics(t *testing.T) {
	env := testEnv()
	cases := []struct {
		name string
		e    Expr
		want int64
	}{
		{"const", C(42), 42},
		{"tidx", Tx, 3},
		{"bidy", By, 7},
		{"bdimx", BDx, 16},
		{"gdimy", GDy, 24},
		{"m", M, 4},
		{"param", P("WIDTH"), 512},
		{"missing param", P("NOPE"), 0},
		{"sum", Sum(Tx, By, C(1)), 11},
		{"prod", Prod(Bx, BDx), 80},
		{"neg", Neg{X: Tx}, -3},
		{"nested", Sum(Prod(By, BDy), Ty), 58},
		{"div", Quot(C(17), C(5)), 3},
		{"div by zero", Quot(C(17), C(0)), 0},
		{"mod", Rem(C(17), C(5)), 2},
		{"mod by zero", Rem(C(17), C(0)), 0},
		{"global linear id", Sum(Prod(Bx, BDx), Tx), 83},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Eval(tc.e, env); got != tc.want {
				t.Errorf("Eval(%v) = %d, want %d", tc.e, got, tc.want)
			}
		})
	}
}

func TestEvalIndirect(t *testing.T) {
	env := testEnv()
	env.Resolve = func(table string, idx int64) int64 {
		if table != "cols" {
			t.Fatalf("unexpected table %q", table)
		}
		return idx * 10
	}
	e := Ind("cols", Sum(Tx, C(1)))
	if got := Eval(e, env); got != 40 {
		t.Errorf("Eval indirect = %d, want 40", got)
	}
	env.Resolve = nil
	if got := Eval(e, env); got != 0 {
		t.Errorf("Eval indirect with nil resolver = %d, want 0", got)
	}
}

func TestSubstitute(t *testing.T) {
	// WIDTH := gridDim.x * blockDim.x, TILE := 16.
	binds := map[string]Expr{
		"WIDTH": Prod(GDx, BDx),
		"TILE":  C(16),
	}
	e := Sum(Prod(By, P("TILE"), P("WIDTH")), Tx)
	sub := Substitute(e, binds)
	env := testEnv()
	want := env.Bid[1]*16*(env.GDim[0]*env.BDim[0]) + env.Tid[0]
	if got := Eval(sub, env); got != want {
		t.Errorf("substituted eval = %d, want %d", got, want)
	}
	kinds, params := Vars(sub)
	if len(params) != 0 {
		t.Errorf("parameters survived substitution: %v", params)
	}
	if !kinds[GDimX] || !kinds[BDimX] {
		t.Errorf("expected gDim.x and bDim.x after substitution, got %v", kinds)
	}
}

func TestSubstituteChained(t *testing.T) {
	binds := map[string]Expr{
		"WIDTH": Prod(P("TILE"), GDx),
		"TILE":  C(16),
	}
	e := P("WIDTH")
	env := &Env{GDim: [3]int64{8, 1, 1}}
	if got := Eval(Substitute(e, binds), env); got != 128 {
		t.Errorf("chained substitution = %d, want 128", got)
	}
}

func TestHasIndirect(t *testing.T) {
	if HasIndirect(Sum(Tx, Prod(Bx, BDx))) {
		t.Error("affine expression reported as indirect")
	}
	if !HasIndirect(Sum(Tx, Ind("cols", M))) {
		t.Error("indirect expression not detected")
	}
	if !HasIndirect(Quot(Ind("t", Tx), C(2))) {
		t.Error("indirect inside div not detected")
	}
}

func TestVars(t *testing.T) {
	e := Sum(Prod(By, BDy, P("WIDTH")), Prod(M, P("TILE")), Tx)
	kinds, params := Vars(e)
	for _, k := range []VarKind{BidY, BDimY, ParamVar, Induction, TidX} {
		if !kinds[k] {
			t.Errorf("missing kind %v", k)
		}
	}
	if kinds[BidX] {
		t.Error("spurious BidX")
	}
	if !params["WIDTH"] || !params["TILE"] {
		t.Errorf("missing params, got %v", params)
	}
	if names := sortedParamNames(params); len(names) != 2 || names[0] != "TILE" {
		t.Errorf("sortedParamNames = %v", names)
	}
}

func TestStringRendering(t *testing.T) {
	e := Sum(Prod(By, C(16), P("WIDTH")), Tx)
	s := e.String()
	for _, frag := range []string{"bid.y", "WIDTH", "tid.x", "16"} {
		if !containsStr(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	if got := Ind("cols", M).String(); got != "cols[m]" {
		t.Errorf("indirect String = %q", got)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// --- randomized property tests ---

// randExpr generates a random expression of bounded depth.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return C(int64(r.Intn(21) - 10))
		case 1:
			return V(VarKind(r.Intn(int(Induction) + 1)))
		case 2:
			return P([]string{"A", "B"}[r.Intn(2)])
		default:
			return M
		}
	}
	switch r.Intn(6) {
	case 0:
		n := 2 + r.Intn(3)
		ops := make([]Expr, n)
		for i := range ops {
			ops[i] = randExpr(r, depth-1)
		}
		return Add(ops)
	case 1:
		n := 2 + r.Intn(2)
		ops := make([]Expr, n)
		for i := range ops {
			ops[i] = randExpr(r, depth-1)
		}
		return Mul(ops)
	case 2:
		return Neg{X: randExpr(r, depth-1)}
	case 3:
		return Quot(randExpr(r, depth-1), C(int64(1+r.Intn(7))))
	case 4:
		return Rem(randExpr(r, depth-1), C(int64(1+r.Intn(7))))
	default:
		return Ind("tab", randExpr(r, depth-1))
	}
}

func randEnv(r *rand.Rand) *Env {
	rv := func() int64 { return int64(r.Intn(9) - 4) }
	return &Env{
		Tid:    [3]int64{rv(), rv(), rv()},
		Bid:    [3]int64{rv(), rv(), rv()},
		BDim:   [3]int64{rv(), rv(), rv()},
		GDim:   [3]int64{rv(), rv(), rv()},
		M:      rv(),
		Params: map[string]int64{"A": rv(), "B": rv()},
		Resolve: func(table string, idx int64) int64 {
			return idx*3 + 1
		},
	}
}

// Property: normalization preserves evaluation semantics.
func TestNormalizePreservesEval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := randEnv(r)
		return Normalize(e).Eval(env) == Eval(e, env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Poly.Expr round-trips through evaluation.
func TestPolyExprRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := randEnv(r)
		p := Normalize(e)
		return Eval(p.Expr(), env) == p.Eval(env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: invariant + variant partitions of the polynomial sum to the
// whole under any environment.
func TestSplitLoopPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := randEnv(r)
		p := Normalize(e)
		inv, vr := p.SplitLoop()
		if inv.DependsOn(Induction) {
			return false
		}
		return inv.Eval(env)+vr.Eval(env) == p.Eval(env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: when DivideByM succeeds, stride*m re-evaluates to the variant
// part.
func TestDivideByMInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := randEnv(r)
		_, vr := Normalize(e).SplitLoop()
		stride, ok := vr.DivideByM()
		if !ok {
			return true // nothing to check
		}
		return stride.Eval(env)*env.M == vr.Eval(env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeCancellation(t *testing.T) {
	// x + (-x) must normalize to zero.
	e := Sum(Tx, Neg{X: Tx})
	if p := Normalize(e); !p.IsZero() {
		t.Errorf("x - x normalized to %v, want 0", p)
	}
	// 2*bx + 3*bx = 5*bx
	p := Normalize(Sum(Prod(C(2), Bx), Prod(C(3), Bx)))
	if len(p.Terms) != 1 || p.Terms[0].Coef != 5 {
		t.Errorf("2bx+3bx normalized to %v", p)
	}
}

func TestNormalizeConstFolding(t *testing.T) {
	if c, ok := Normalize(Quot(C(12), C(4))).IsConst(); !ok || c != 3 {
		t.Errorf("12/4 did not fold, got const=%d ok=%v", c, ok)
	}
	if c, ok := Normalize(Rem(C(12), C(5))).IsConst(); !ok || c != 2 {
		t.Errorf("12%%5 did not fold, got const=%d ok=%v", c, ok)
	}
}

func TestIsExactlyM(t *testing.T) {
	if !Normalize(M).IsExactlyM() {
		t.Error("m not recognized as exactly m")
	}
	if Normalize(Prod(C(2), M)).IsExactlyM() {
		t.Error("2m misrecognized as exactly m")
	}
	if Normalize(Prod(M, BDx)).IsExactlyM() {
		t.Error("m*bDim.x misrecognized as exactly m")
	}
	// m + tid.x splits: variant part is exactly m.
	_, vr := Normalize(Sum(M, Tx)).SplitLoop()
	if !vr.IsExactlyM() {
		t.Error("variant part of m+tid.x should be exactly m")
	}
}

func TestDivideByMFailures(t *testing.T) {
	// m^2 is not linear in m.
	_, vr := Normalize(Prod(M, M)).SplitLoop()
	if _, ok := vr.DivideByM(); ok {
		t.Error("m^2 should not divide by m")
	}
	// m inside an indirect atom is not divisible.
	_, vr = Normalize(Prod(Ind("t", M), C(2))).SplitLoop()
	if _, ok := vr.DivideByM(); ok {
		t.Error("indirect(m) should not divide by m")
	}
}

func TestDivideByMStride(t *testing.T) {
	// Index a = bx*bDim.x + tx + m*bDim.x*gDim.x: classic grid-stride.
	idx := Sum(Prod(Bx, BDx), Tx, Prod(M, BDx, GDx))
	_, vr := Normalize(idx).SplitLoop()
	stride, ok := vr.DivideByM()
	if !ok {
		t.Fatal("grid-stride should divide by m")
	}
	env := &Env{BDim: [3]int64{256, 1, 1}, GDim: [3]int64{2048, 1, 1}}
	if got := stride.Eval(env); got != 256*2048 {
		t.Errorf("stride = %d, want %d", got, 256*2048)
	}
}

func TestCoefficientOf(t *testing.T) {
	// (by*16 + ty) * (gDim.x*bDim.x) + m*16 + tx: coefficient of by is
	// 16*gDim.x*bDim.x.
	width := Prod(GDx, BDx)
	idx := Sum(Prod(Sum(Prod(By, C(16)), Ty), width), Prod(M, C(16)), Tx)
	p := Normalize(idx)
	coef, ok := p.CoefficientOf(BidY)
	if !ok {
		t.Fatal("coefficient extraction failed")
	}
	env := &Env{BDim: [3]int64{16, 16, 1}, GDim: [3]int64{64, 64, 1}}
	if got := coef.Eval(env); got != 16*64*16 {
		t.Errorf("coef(by) = %d, want %d", got, 16*64*16)
	}
	// Variable absent: zero coefficient, ok.
	coef, ok = p.CoefficientOf(BidX)
	if !ok || !coef.IsZero() {
		t.Errorf("coef(bx) = %v ok=%v, want zero", coef, ok)
	}
	// Quadratic: not well defined.
	if _, ok := Normalize(Prod(Bx, Bx)).CoefficientOf(BidX); ok {
		t.Error("quadratic coefficient should fail")
	}
	// Inside an opaque atom: not well defined.
	if _, ok := Normalize(Ind("t", Bx)).CoefficientOf(BidX); ok {
		t.Error("opaque coefficient should fail")
	}
}

// Property: for affine expressions, p == CoefficientOf(v)*v + remainder
// under evaluation (checked by shifting v by 1).
func TestCoefficientOfLinearity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 2)
		p := Normalize(e)
		coef, ok := p.CoefficientOf(BidX)
		if !ok {
			return true
		}
		env := randEnv(r)
		v0 := p.Eval(env)
		env.Bid[0]++
		v1 := p.Eval(env)
		env.Bid[0]--
		// Finite difference equals the coefficient for linear terms; when
		// bx also appears opaquely or quadratically ok would be false.
		return v1-v0 == coef.Eval(env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDependsOn(t *testing.T) {
	p := Normalize(Sum(Prod(By, BDy, GDx), Tx))
	if !p.DependsOn(BidY) || !p.DependsOn(GDimX) || !p.DependsOn(TidX) {
		t.Error("missing dependencies")
	}
	if p.DependsOn(BidX) {
		t.Error("spurious BidX dependency")
	}
	// Dependence must look inside opaque atoms.
	p = Normalize(Ind("t", Bx))
	if !p.DependsOn(BidX) {
		t.Error("dependence inside indirect not seen")
	}
	if !p.HasOpaque() {
		t.Error("indirect atom not marked opaque")
	}
}

func TestPolyString(t *testing.T) {
	p := Normalize(Sum(Prod(C(2), Bx), C(7)))
	s := p.String()
	if !containsStr(s, "bid.x") || !containsStr(s, "7") {
		t.Errorf("Poly.String = %q", s)
	}
	if got := (Poly{}).String(); got != "0" {
		t.Errorf("zero poly String = %q", got)
	}
}

func BenchmarkEvalTree(b *testing.B) {
	e := Sum(Prod(By, BDy, P("WIDTH")), Prod(Bx, BDx), Tx, Prod(M, P("TILE")))
	env := testEnv()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Eval(e, env)
	}
}

func BenchmarkNormalize(b *testing.B) {
	e := Sum(Prod(By, BDy, Prod(GDx, BDx)), Prod(Bx, BDx), Tx, Prod(M, C(16), BDx, GDx))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Normalize(e)
	}
}
