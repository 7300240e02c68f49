package symbolic

import (
	"fmt"
	"slices"
	"strings"
)

// Atom is a single multiplicative factor of a canonical term: either a
// prime variable or an opaque subexpression (Indirect, Div, Mod) that the
// affine analysis cannot see through. Opaque atoms carry the set of
// variable kinds appearing anywhere inside them so dependence queries stay
// conservative.
type Atom struct {
	// Var is set for variable atoms; Opaque is nil.
	Var Var
	// Opaque is non-nil for Indirect/Div/Mod atoms.
	Opaque Expr
	// key is a canonical identity string; equal atoms have equal keys.
	key string
	// innerKinds is the set (bit i = VarKind i) of variable kinds inside
	// an opaque atom.
	innerKinds uint16
}

func varAtom(v Var) Atom {
	key := v.Kind.String()
	if v.Kind == ParamVar {
		key = "p:" + v.Name
	}
	return Atom{Var: v, key: key}
}

func opaqueAtom(e Expr) Atom {
	var kinds uint16
	Walk(e, func(n Expr) {
		if v, ok := n.(Var); ok {
			kinds |= 1 << v.Kind
		}
	})
	return Atom{Opaque: e, key: "o:" + e.String(), innerKinds: kinds}
}

// DependsOn reports whether the atom involves the given variable kind,
// looking inside opaque subexpressions.
func (a Atom) DependsOn(kind VarKind) bool {
	if a.Opaque != nil {
		return a.innerKinds&(1<<kind) != 0
	}
	return a.Var.Kind == kind
}

// IsVar reports whether the atom is exactly the given variable kind (not an
// opaque expression that merely contains it).
func (a Atom) IsVar(kind VarKind) bool {
	return a.Opaque == nil && a.Var.Kind == kind
}

// IsOpaque reports whether the atom is an opaque (non-affine or
// data-dependent) subexpression.
func (a Atom) IsOpaque() bool { return a.Opaque != nil }

func (a Atom) String() string {
	if a.Opaque != nil {
		return a.Opaque.String()
	}
	return a.Var.String()
}

// Term is a product of atoms scaled by an integer coefficient.
type Term struct {
	Coef  int64
	Atoms []Atom // sorted by key
}

func (t Term) key() string {
	switch len(t.Atoms) {
	case 0:
		return ""
	case 1:
		return t.Atoms[0].key
	}
	var b strings.Builder
	for i, a := range t.Atoms {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(a.key)
	}
	return b.String()
}

// DependsOn reports whether any atom of the term involves kind.
func (t Term) DependsOn(kind VarKind) bool {
	for _, a := range t.Atoms {
		if a.DependsOn(kind) {
			return true
		}
	}
	return false
}

// HasOpaque reports whether any atom of the term is opaque.
func (t Term) HasOpaque() bool {
	for _, a := range t.Atoms {
		if a.IsOpaque() {
			return true
		}
	}
	return false
}

// degreeOf counts atoms that are exactly the given variable kind.
func (t Term) degreeOf(kind VarKind) int {
	n := 0
	for _, a := range t.Atoms {
		if a.IsVar(kind) {
			n++
		}
	}
	return n
}

func (t Term) String() string {
	if len(t.Atoms) == 0 {
		return fmt.Sprintf("%d", t.Coef)
	}
	parts := make([]string, 0, len(t.Atoms)+1)
	if t.Coef != 1 {
		parts = append(parts, fmt.Sprintf("%d", t.Coef))
	}
	for _, a := range t.Atoms {
		parts = append(parts, a.String())
	}
	return strings.Join(parts, "*")
}

// Poly is a canonical sum-of-products form of an index expression. Terms
// are sorted by key and have non-zero coefficients; the zero polynomial has
// no terms.
type Poly struct {
	Terms []Term
}

// IsZero reports whether the polynomial has no terms.
func (p Poly) IsZero() bool { return len(p.Terms) == 0 }

// IsConst reports whether the polynomial is a constant and returns it.
func (p Poly) IsConst() (int64, bool) {
	if len(p.Terms) == 0 {
		return 0, true
	}
	if len(p.Terms) == 1 && len(p.Terms[0].Atoms) == 0 {
		return p.Terms[0].Coef, true
	}
	return 0, false
}

// DependsOn reports whether any term involves kind (including inside
// opaque atoms).
func (p Poly) DependsOn(kind VarKind) bool {
	for _, t := range p.Terms {
		if t.DependsOn(kind) {
			return true
		}
	}
	return false
}

// HasOpaque reports whether any term contains an opaque atom.
func (p Poly) HasOpaque() bool {
	for _, t := range p.Terms {
		if t.HasOpaque() {
			return true
		}
	}
	return false
}

func (p Poly) String() string {
	if len(p.Terms) == 0 {
		return "0"
	}
	parts := make([]string, len(p.Terms))
	for i, t := range p.Terms {
		parts[i] = t.String()
	}
	return strings.Join(parts, " + ")
}

// Eval evaluates the polynomial under env.
func (p Poly) Eval(env *Env) int64 {
	var sum int64
	for _, t := range p.Terms {
		v := t.Coef
		for _, a := range t.Atoms {
			if a.Opaque != nil {
				v *= Eval(a.Opaque, env)
			} else {
				v *= env.Value(a.Var)
			}
		}
		sum += v
	}
	return sum
}

// Expr converts the polynomial back into an expression tree.
func (p Poly) Expr() Expr {
	if len(p.Terms) == 0 {
		return Const(0)
	}
	ops := make([]Expr, 0, len(p.Terms))
	for _, t := range p.Terms {
		factors := make([]Expr, 0, len(t.Atoms)+1)
		if t.Coef != 1 || len(t.Atoms) == 0 {
			factors = append(factors, Const(t.Coef))
		}
		for _, a := range t.Atoms {
			if a.Opaque != nil {
				factors = append(factors, a.Opaque)
			} else {
				factors = append(factors, a.Var)
			}
		}
		if len(factors) == 1 {
			ops = append(ops, factors[0])
		} else {
			ops = append(ops, Mul(factors))
		}
	}
	if len(ops) == 1 {
		return ops[0]
	}
	return Add(ops)
}

// canonical canonicalizes a term list: merge equal-key terms, drop
// zeros, sort by key. Terms are immutable once built, so merged terms
// share their atom slices with the input.
func canonical(terms []Term) Poly {
	keyed := make([]keyedTerm, 0, len(terms))
	for _, t := range terms {
		if t.Coef != 0 {
			keyed = append(keyed, keyedTerm{t.key(), t})
		}
	}
	slices.SortStableFunc(keyed, func(a, b keyedTerm) int { return strings.Compare(a.key, b.key) })
	out := make([]Term, 0, len(keyed))
	for i := 0; i < len(keyed); {
		t := keyed[i].t
		j := i + 1
		for ; j < len(keyed) && keyed[j].key == keyed[i].key; j++ {
			t.Coef += keyed[j].t.Coef
		}
		if t.Coef != 0 {
			out = append(out, t)
		}
		i = j
	}
	return Poly{Terms: out}
}

type keyedTerm struct {
	key string
	t   Term
}

func polyNeg(a Poly) Poly {
	terms := make([]Term, len(a.Terms))
	for i, t := range a.Terms {
		terms[i] = Term{Coef: -t.Coef, Atoms: t.Atoms}
	}
	return Poly{Terms: terms}
}

func polyMul(a, b Poly) Poly {
	terms := make([]Term, 0, len(a.Terms)*len(b.Terms))
	for _, ta := range a.Terms {
		for _, tb := range b.Terms {
			atoms := make([]Atom, 0, len(ta.Atoms)+len(tb.Atoms))
			atoms = append(atoms, ta.Atoms...)
			atoms = append(atoms, tb.Atoms...)
			slices.SortFunc(atoms, func(a, b Atom) int { return strings.Compare(a.key, b.key) })
			terms = append(terms, Term{Coef: ta.Coef * tb.Coef, Atoms: atoms})
		}
	}
	return canonical(terms)
}

// Normalize converts e into canonical sum-of-products form. Indirect, Div
// and Mod nodes become opaque atoms (their inner expressions are normalized
// for canonical printing but not expanded into the polynomial).
func Normalize(e Expr) Poly {
	switch t := e.(type) {
	case Const:
		if t == 0 {
			return Poly{}
		}
		return Poly{Terms: []Term{{Coef: int64(t)}}}
	case Var:
		return Poly{Terms: []Term{{Coef: 1, Atoms: []Atom{varAtom(t)}}}}
	case Add:
		var terms []Term
		for _, op := range t {
			terms = append(terms, Normalize(op).Terms...)
		}
		return canonical(terms)
	case Mul:
		acc := Poly{Terms: []Term{{Coef: 1}}}
		for _, op := range t {
			acc = polyMul(acc, Normalize(op))
		}
		return acc
	case Neg:
		return polyNeg(Normalize(t.X))
	case Indirect:
		inner := Normalize(t.Inner).Expr()
		return Poly{Terms: []Term{{Coef: 1, Atoms: []Atom{opaqueAtom(Indirect{Table: t.Table, Inner: inner})}}}}
	case Div:
		num := Normalize(t.Num)
		den := Normalize(t.Den)
		// Fold constant division so scaled constants stay affine.
		if nc, ok := num.IsConst(); ok {
			if dc, ok2 := den.IsConst(); ok2 && dc != 0 {
				return Normalize(Const(nc / dc))
			}
		}
		return Poly{Terms: []Term{{Coef: 1, Atoms: []Atom{opaqueAtom(Div{Num: num.Expr(), Den: den.Expr()})}}}}
	case Mod:
		num := Normalize(t.Num)
		den := Normalize(t.Den)
		if nc, ok := num.IsConst(); ok {
			if dc, ok2 := den.IsConst(); ok2 && dc != 0 {
				return Normalize(Const(nc % dc))
			}
		}
		return Poly{Terms: []Term{{Coef: 1, Atoms: []Atom{opaqueAtom(Mod{Num: num.Expr(), Den: den.Expr()})}}}}
	default:
		panic(fmt.Sprintf("symbolic: unknown expression type %T", e))
	}
}

// SplitLoop partitions p into the loop-invariant group (terms free of the
// induction variable) and the loop-variant group (terms involving it) —
// the core decomposition of the paper's index analysis.
func (p Poly) SplitLoop() (invariant, variant Poly) {
	for _, t := range p.Terms {
		if t.DependsOn(Induction) {
			variant.Terms = append(variant.Terms, t)
		} else {
			invariant.Terms = append(invariant.Terms, t)
		}
	}
	return invariant, variant
}

// IsExactlyM reports whether the polynomial is precisely the induction
// variable with coefficient one (the ITL test of Algorithm 1).
func (p Poly) IsExactlyM() bool {
	return len(p.Terms) == 1 &&
		p.Terms[0].Coef == 1 &&
		len(p.Terms[0].Atoms) == 1 &&
		p.Terms[0].Atoms[0].IsVar(Induction)
}

// CoefficientOf returns the linear coefficient of the given variable kind:
// the sum of all terms containing exactly one direct factor of it, with
// that factor removed. ok is false when the variable appears non-linearly
// or inside an opaque atom (the coefficient is then not well defined).
// Terms not involving the variable are ignored, so for index equations
// this extracts e.g. "elements per blockIdx.y step".
func (p Poly) CoefficientOf(kind VarKind) (coef Poly, ok bool) {
	terms := make([]Term, 0, len(p.Terms))
	for _, t := range p.Terms {
		deg := t.degreeOf(kind)
		opaqueDep := false
		for _, a := range t.Atoms {
			if a.IsOpaque() && a.DependsOn(kind) {
				opaqueDep = true
			}
		}
		if opaqueDep || deg > 1 {
			return Poly{}, false
		}
		if deg == 0 {
			continue
		}
		atoms := make([]Atom, 0, len(t.Atoms)-1)
		removed := false
		for _, a := range t.Atoms {
			if !removed && a.IsVar(kind) {
				removed = true
				continue
			}
			atoms = append(atoms, a)
		}
		terms = append(terms, Term{Coef: t.Coef, Atoms: atoms})
	}
	return canonical(terms), true
}

// DivideByM divides every term of the loop-variant group by one factor of
// the induction variable, yielding the per-iteration stride expression. It
// fails (ok=false) if any term does not contain the induction variable as a
// direct linear factor — e.g. m inside an opaque atom or m-squared terms —
// in which case the access is not classifiable as a linear stride.
func (p Poly) DivideByM() (stride Poly, ok bool) {
	terms := make([]Term, 0, len(p.Terms))
	for _, t := range p.Terms {
		if t.degreeOf(Induction) != 1 {
			return Poly{}, false
		}
		// Opaque atoms containing m would make the division unsound.
		for _, a := range t.Atoms {
			if a.IsOpaque() && a.DependsOn(Induction) {
				return Poly{}, false
			}
		}
		atoms := make([]Atom, 0, len(t.Atoms)-1)
		removed := false
		for _, a := range t.Atoms {
			if !removed && a.IsVar(Induction) {
				removed = true
				continue
			}
			atoms = append(atoms, a)
		}
		terms = append(terms, Term{Coef: t.Coef, Atoms: atoms})
	}
	return canonical(terms), true
}
