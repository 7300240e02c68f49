package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	env := testEnv()
	cases := []struct {
		src  string
		want int64
	}{
		{"42", 42},
		{"tx", 3},
		{"tid.x", 3},
		{"threadIdx.x", 3},
		{"by", 7},
		{"bDim.x", 16},
		{"gDim.y", 24},
		{"m", 4},
		{"WIDTH", 512},
		{"gid", 5*16 + 3},
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"10-4-3", 3},
		{"-tx", -3},
		{"17/5", 3},
		{"17%5", 2},
		{"2*-3", -6},
		{"(by*16+ty)*WIDTH + m*16 + tx", (7*16+2)*512 + 4*16 + 3},
	}
	for _, tc := range cases {
		e, err := Parse(tc.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := Eval(e, env); got != tc.want {
			t.Errorf("Parse(%q) evaluates to %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestParseIndirect(t *testing.T) {
	env := testEnv()
	env.Resolve = func(table string, idx int64) int64 {
		if table == "rowptr" {
			return idx * 100
		}
		return idx + 1
	}
	e, err := Parse("cols[rowptr[tx] + m]")
	if err != nil {
		t.Fatal(err)
	}
	// rowptr[3] = 300; cols[304] = 305.
	if got := Eval(e, env); got != 305 {
		t.Errorf("nested indirect = %d, want 305", got)
	}
	if !HasIndirect(e) {
		t.Error("indirect not detected")
	}
}

func TestParsePrecedence(t *testing.T) {
	env := testEnv()
	// % and * bind tighter than +.
	e := MustParse("(gid + OFF) % N * 19 + m")
	env.Params["OFF"] = 10
	env.Params["N"] = 7
	want := (int64(83)+10)%7*19 + 4
	if got := Eval(e, env); got != want {
		t.Errorf("precedence eval = %d, want %d", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "1+", "(1", "cols[1", "1)", "@", "1 2", "a[", "*3",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	MustParse("1+")
}

// Property: printing a parsed expression and re-parsing it preserves
// evaluation semantics (String -> Parse round trip).
func TestParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 3)
		env := randEnv(r)
		reparsed, err := Parse(e.String())
		if err != nil {
			return false
		}
		return Eval(reparsed, env) == Eval(e, env)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParseClassifyFigure6 drives the textual front end through the same
// worked example as the structural API: the paper's Figure 6 GEMM.
func TestParseClassifyFigure6(t *testing.T) {
	// The analyzer sees WIDTH already substituted into prime components.
	a := MustParse("(by*16+ty)*(gDim.x*bDim.x) + m*16 + tx")
	p := Normalize(a)
	inv, vr := p.SplitLoop()
	if !inv.DependsOn(BidY) || inv.DependsOn(BidX) {
		t.Error("A invariant dependencies wrong")
	}
	if vr.DependsOn(GDimX) {
		t.Error("A variant should not contain gDim.x")
	}
}

// expansion bounds the terms Normalize can produce for e (sums add,
// products multiply, opaque atoms are one term) and reports the largest
// such bound over e and every subexpression Normalize expands on its own
// (the operands of Indirect, Div and Mod).
func expansion(e Expr) (terms, worst int) {
	const capAt = 1 << 30 // saturate instead of overflowing
	switch t := e.(type) {
	case Add:
		for _, op := range t {
			n, w := expansion(op)
			terms, worst = min(terms+n, capAt), max(worst, w)
		}
	case Mul:
		terms = 1
		for _, op := range t {
			n, w := expansion(op)
			terms, worst = min(terms*n, capAt), max(worst, w)
		}
	case Neg:
		return expansion(t.X)
	case Indirect:
		_, worst = expansion(t.Inner)
		terms = 1
	case Div:
		_, wn := expansion(t.Num)
		_, wd := expansion(t.Den)
		terms, worst = 1, max(wn, wd)
	case Mod:
		_, wn := expansion(t.Num)
		_, wd := expansion(t.Den)
		terms, worst = 1, max(wn, wd)
	default:
		terms = 1
	}
	return terms, max(worst, terms)
}

// FuzzParse feeds arbitrary text to Parse. Parse must never panic. An
// accepted expression must survive Normalize without panicking, expand
// to no more terms than its shape allows, and keep its value.
func FuzzParse(f *testing.F) {
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
		e, err := Parse(src)
		if err != nil {
			return
		}
		terms, worst := expansion(e)
		if worst > 1<<12 {
			return // valid, but exponential to expand: out of scope
		}
		p := Normalize(e)
		if len(p.Terms) > terms {
			t.Fatalf("Normalize(%q) has %d terms, shape allows %d", src, len(p.Terms), terms)
		}
		env := testEnv()
		env.Resolve = func(table string, idx int64) int64 { return idx*7 - int64(len(table)) }
		if got, want := p.Eval(env), Eval(e, env); got != want {
			t.Fatalf("Normalize(%q) evaluates to %d, tree %d", src, got, want)
		}
	})
}
