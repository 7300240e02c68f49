package trace

import (
	"fmt"

	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
)

// This file holds the warp evaluator: each access's index (and predicate)
// is normalized once, when the generator is built, into the canonical
// polynomial of symbolic.Normalize and split by thread dependence:
//
//	index = base + cx·tid.x + cy·tid.y + cz·tid.z + Σ lane terms
//
// base and the c coefficients collect the terms free of threadIdx; they
// depend only on blockIdx and the loop variable, so a WarpTransactions
// call evaluates them once for all lanes. A lane then costs three
// multiply-adds over a precomputed tid table. Only terms that multiply
// tid components together, or hold an Indirect/Div/Mod atom that reads
// threadIdx, evaluate per lane, and those hoist their own thread-free
// factors and operands the same way. blockDim, gridDim and launch
// parameters are fixed for the whole launch and fold into constants.
//
// The result is bit-identical to symbolic.Eval: wrapping int64 arithmetic
// is the ring Z/2^64, in which the polynomial is an exact rewrite of the
// tree, and Div/Mod/Indirect see exactly the operand values Eval computes.

// tid is one thread's threadIdx.
type tid struct{ x, y, z int64 }

// tidTable lists threadIdx for every linear thread of a block.
func tidTable(block kir.Dim3) []tid {
	n := block.Count()
	bx, by := int64(block.X), int64(max(block.Y, 1))
	out := make([]tid, n)
	for t := range out {
		i := int64(t)
		out[t] = tid{i % bx, (i / bx) % by, i / (bx * by)}
	}
	return out
}

// Slots of warpEnv.vars: the variables that change within a launch.
const (
	slotBidX = iota
	slotBidY
	slotBidZ
	slotM
	numSlots
)

// warpEnv binds one warp at one loop iteration.
type warpEnv struct {
	vars [numSlots]int64
	tids []tid // the warp's lanes
}

// product is coef times launch-varying variables times thread-free opaque
// atoms: a value shared by every lane of a warp.
type product struct {
	coef int64
	vars []uint8 // warpEnv.vars slots
	ops  []*opaque
}

func (p *product) eval(w *warpEnv) int64 {
	v := p.coef
	for _, s := range p.vars {
		v *= w.vars[s]
	}
	for _, o := range p.ops {
		v *= o.scalar(w)
	}
	return v
}

// constant reports whether the product is a plain number.
func (p *product) constant() bool { return len(p.vars) == 0 && len(p.ops) == 0 }

// laneTerm is a term evaluated per lane: a shared factor times
// tid.x^pow[0]·tid.y^pow[1]·tid.z^pow[2] times thread-dependent atoms.
type laneTerm struct {
	factor product
	pow    [3]uint8
	ops    []*opaque
}

// laneExpr is a polynomial split by thread dependence (see the file
// comment).
type laneExpr struct {
	konst    int64
	inv      []product    // thread-free, launch-varying terms
	linK     [3]int64     // constant parts of the tid coefficients
	lin      [3][]product // launch-varying parts of the tid coefficients
	lane     []laneTerm
	tidFree  bool
	constant bool // no variable anywhere: the value is konst
}

// scalar evaluates a thread-free expression.
func (p *laneExpr) scalar(w *warpEnv) int64 {
	v := p.konst
	for i := range p.inv {
		v += p.inv[i].eval(w)
	}
	return v
}

// coefs evaluates the tid.x, tid.y and tid.z coefficients.
func (p *laneExpr) coefs(w *warpEnv) [3]int64 {
	c := p.linK
	for k := range p.lin {
		for i := range p.lin[k] {
			c[k] += p.lin[k][i].eval(w)
		}
	}
	return c
}

// lanes evaluates the expression for every lane of w into out, which must
// hold at least len(w.tids) values, and returns out[:len(w.tids)].
func (p *laneExpr) lanes(w *warpEnv, out []int64) []int64 {
	out = out[:len(w.tids)]
	base := p.scalar(w)
	if p.tidFree {
		for i := range out {
			out[i] = base
		}
		return out
	}
	c := p.coefs(w)
	for i, t := range w.tids {
		out[i] = base + c[0]*t.x + c[1]*t.y + c[2]*t.z
	}
	for j := range p.lane {
		lt := &p.lane[j]
		h := lt.factor.eval(w)
		if h == 0 {
			continue // 0·x = 0 whatever the lane atoms hold
		}
		for _, o := range lt.ops {
			o.lanes(w)
		}
		for i, t := range w.tids {
			v := h
			for n := lt.pow[0]; n > 0; n-- {
				v *= t.x
			}
			for n := lt.pow[1]; n > 0; n-- {
				v *= t.y
			}
			for n := lt.pow[2]; n > 0; n-- {
				v *= t.z
			}
			for _, o := range lt.ops {
				v *= o.vals[i]
			}
			out[i] += v
		}
	}
	return out
}

type opKind uint8

const (
	opIndirect opKind = iota
	opDiv
	opMod
)

// opaque is an Indirect, Div or Mod atom. Indirect binds its table when
// the generator is built; a and b are the inner index, or the numerator
// and denominator.
type opaque struct {
	kind    opKind
	table   []int64
	a, b    *laneExpr
	tidFree bool
	// Per-lane scratch of a thread-dependent atom: its operands and
	// its result, filled by lanes.
	abuf, bbuf, vals []int64
}

func (o *opaque) apply(x, y int64) int64 {
	switch o.kind {
	case opIndirect:
		return kir.Lookup(o.table, x)
	case opDiv:
		if y == 0 {
			return 0
		}
		return x / y
	default:
		if y == 0 {
			return 0
		}
		return x % y
	}
}

// scalar evaluates a thread-free atom.
func (o *opaque) scalar(w *warpEnv) int64 {
	x := o.a.scalar(w)
	var y int64
	if o.b != nil {
		y = o.b.scalar(w)
	}
	return o.apply(x, y)
}

// lanes evaluates a thread-dependent atom for every lane into o.vals.
func (o *opaque) lanes(w *warpEnv) {
	vals := o.vals[:len(w.tids)]
	xs := o.a.lanes(w, o.abuf)
	switch {
	case o.kind == opIndirect:
		for i, x := range xs {
			vals[i] = kir.Lookup(o.table, x)
		}
	case o.b.tidFree:
		y := o.b.scalar(w)
		for i, x := range xs {
			vals[i] = o.apply(x, y)
		}
	default:
		ys := o.b.lanes(w, o.bbuf)
		for i, x := range xs {
			vals[i] = o.apply(x, ys[i])
		}
	}
}

// evalBuilder compiles expressions of one kernel launch.
type evalBuilder struct {
	consts *sym.Env // blockDim, gridDim and parameters of the launch
	tables map[string][]int64
	width  int // lanes per warp: the length of every scratch buffer
}

// expr compiles e. It normalizes e, so the caller may pass any tree.
func (b *evalBuilder) expr(e sym.Expr) *laneExpr {
	p := &laneExpr{}
	for _, t := range sym.Normalize(e).Terms {
		f := product{coef: t.Coef}
		var pow [3]uint8
		var laneOps []*opaque
		for _, a := range t.Atoms {
			if a.IsOpaque() {
				o, k, isConst := b.opaque(a.Opaque)
				switch {
				case isConst:
					f.coef *= k
				case o.tidFree:
					f.ops = append(f.ops, o)
				default:
					laneOps = append(laneOps, o)
				}
				continue
			}
			switch k := a.Var.Kind; k {
			case sym.TidX, sym.TidY, sym.TidZ:
				pow[k-sym.TidX]++
			case sym.BidX, sym.BidY, sym.BidZ:
				f.vars = append(f.vars, uint8(slotBidX+k-sym.BidX))
			case sym.Induction:
				f.vars = append(f.vars, slotM)
			default: // blockDim, gridDim, parameters
				f.coef *= b.consts.Value(a.Var)
			}
		}
		deg := int(pow[0]) + int(pow[1]) + int(pow[2])
		switch {
		case deg == 0 && len(laneOps) == 0:
			if f.constant() {
				p.konst += f.coef
			} else {
				p.inv = append(p.inv, f)
			}
		case deg == 1 && len(laneOps) == 0:
			k := 0
			for pow[k] == 0 {
				k++
			}
			if f.constant() {
				p.linK[k] += f.coef
			} else {
				p.lin[k] = append(p.lin[k], f)
			}
		default:
			p.lane = append(p.lane, laneTerm{factor: f, pow: pow, ops: laneOps})
		}
	}
	p.tidFree = len(p.lin[0])+len(p.lin[1])+len(p.lin[2]) == 0 &&
		p.linK == [3]int64{} && len(p.lane) == 0
	p.constant = p.tidFree && len(p.inv) == 0
	return p
}

// opaque compiles an Indirect/Div/Mod atom. When its operands are
// constants it folds to the constant k instead.
func (b *evalBuilder) opaque(e sym.Expr) (o *opaque, k int64, isConst bool) {
	switch t := e.(type) {
	case sym.Indirect:
		o = &opaque{kind: opIndirect, table: b.tables[t.Table], a: b.expr(t.Inner)}
	case sym.Div:
		o = &opaque{kind: opDiv, a: b.expr(t.Num), b: b.expr(t.Den)}
	case sym.Mod:
		o = &opaque{kind: opMod, a: b.expr(t.Num), b: b.expr(t.Den)}
	default:
		panic(fmt.Sprintf("trace: unexpected opaque atom %T", e))
	}
	o.tidFree = o.a.tidFree && (o.b == nil || o.b.tidFree)
	if o.a.constant && (o.b == nil || o.b.constant) {
		return nil, o.scalar(&warpEnv{}), true
	}
	if !o.tidFree {
		o.vals = make([]int64, b.width)
		o.abuf = make([]int64, b.width)
		if o.b != nil && !o.b.tidFree {
			o.bbuf = make([]int64, b.width)
		}
	}
	return o, 0, false
}
