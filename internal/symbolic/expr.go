// Package symbolic implements the symbolic index-expression engine that
// underpins LADM's threadblock-centric static analysis (MICRO 2020,
// Section III-B/C).
//
// A GPU global-memory access index is represented as an expression tree over
// the "prime variables" of the CUDA programming model: thread IDs, block
// IDs, block dimensions, grid dimensions, the innermost induction variable
// of the kernel's outer loop, launch-time parameters, and constants.
// Expressions are normalized into a canonical sum-of-products polynomial so
// the compiler can split them into loop-variant and loop-invariant groups,
// extract threadblock strides, and classify the access (Table II of the
// paper).
//
// The trace generator evaluates the same expressions, from the same
// normalized polynomials, for every thread of every warp, so the static
// analysis and the dynamic memory trace are, by construction, two views
// of the same object — mirroring how the paper's compiler pass and its
// simulated workloads relate. Eval is the reference semantics.
package symbolic

import (
	"fmt"
	"sort"
	"strings"
)

// VarKind enumerates the prime variables of the CUDA programming model.
type VarKind int

const (
	// TidX..TidZ are threadIdx components.
	TidX VarKind = iota
	TidY
	TidZ
	// BidX..BidZ are blockIdx components.
	BidX
	BidY
	BidZ
	// BDimX..BDimZ are blockDim components.
	BDimX
	BDimY
	BDimZ
	// GDimX..GDimZ are gridDim components.
	GDimX
	GDimY
	GDimZ
	// Induction is the induction variable of the kernel's outermost loop
	// (the "m" of the paper's index equations).
	Induction
	// ParamVar is a launch-time constant kernel argument (e.g. WIDTH). Its
	// name disambiguates distinct parameters.
	ParamVar

	numVarKinds
)

var varKindNames = [...]string{
	TidX: "tid.x", TidY: "tid.y", TidZ: "tid.z",
	BidX: "bid.x", BidY: "bid.y", BidZ: "bid.z",
	BDimX: "bDim.x", BDimY: "bDim.y", BDimZ: "bDim.z",
	GDimX: "gDim.x", GDimY: "gDim.y", GDimZ: "gDim.z",
	Induction: "m", ParamVar: "param",
}

func (k VarKind) String() string {
	if k >= 0 && int(k) < len(varKindNames) {
		return varKindNames[k]
	}
	return fmt.Sprintf("VarKind(%d)", int(k))
}

// Expr is a symbolic integer expression over prime variables.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// Const is an integer literal.
type Const int64

// Var is a prime variable. For ParamVar, Name identifies the parameter;
// for all other kinds Name is empty.
type Var struct {
	Kind VarKind
	Name string
}

// Add is a sum of subexpressions.
type Add []Expr

// Mul is a product of subexpressions.
type Mul []Expr

// Neg is the negation of a subexpression.
type Neg struct{ X Expr }

// Indirect is a data-dependent component: the value loaded from Table at
// index Inner (the X[Y[i]] pattern of irregular workloads). The static
// analysis treats it as an opaque atom; the trace generator resolves it
// against synthetic data.
type Indirect struct {
	Table string
	Inner Expr
}

// Div is truncated integer division. It is opaque to the polynomial
// analysis (non-affine), matching the paper's treatment of complex indices.
type Div struct{ Num, Den Expr }

// Mod is the integer remainder, likewise opaque.
type Mod struct{ Num, Den Expr }

func (Const) isExpr()    {}
func (Var) isExpr()      {}
func (Add) isExpr()      {}
func (Mul) isExpr()      {}
func (Neg) isExpr()      {}
func (Indirect) isExpr() {}
func (Div) isExpr()      {}
func (Mod) isExpr()      {}

func (c Const) String() string { return fmt.Sprintf("%d", int64(c)) }

func (v Var) String() string {
	if v.Kind == ParamVar {
		return v.Name
	}
	return v.Kind.String()
}

func joinExprs(ops []Expr, sep string) string {
	parts := make([]string, len(ops))
	for i, op := range ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, sep)
}

func (a Add) String() string { return "(" + joinExprs(a, " + ") + ")" }
func (m Mul) String() string { return joinExprs(m, "*") }
func (n Neg) String() string { return "-(" + n.X.String() + ")" }

func (ix Indirect) String() string {
	return fmt.Sprintf("%s[%s]", ix.Table, ix.Inner)
}

func (d Div) String() string { return fmt.Sprintf("(%s / %s)", d.Num, d.Den) }
func (m Mod) String() string { return fmt.Sprintf("(%s %% %s)", m.Num, m.Den) }

// Convenience constructors. They keep kernel definitions terse and close to
// the CUDA source they model.

// C returns a constant expression.
func C(v int64) Expr { return Const(v) }

// P returns a launch-parameter variable.
func P(name string) Expr { return Var{Kind: ParamVar, Name: name} }

// V returns a non-parameter prime variable.
func V(kind VarKind) Expr { return Var{Kind: kind} }

// Shorthand prime variables.
var (
	Tx  = V(TidX)
	Ty  = V(TidY)
	Tz  = V(TidZ)
	Bx  = V(BidX)
	By  = V(BidY)
	Bz  = V(BidZ)
	BDx = V(BDimX)
	BDy = V(BDimY)
	BDz = V(BDimZ)
	GDx = V(GDimX)
	GDy = V(GDimY)
	GDz = V(GDimZ)
	M   = V(Induction)
)

// Sum builds an Add node.
func Sum(ops ...Expr) Expr { return Add(ops) }

// Prod builds a Mul node.
func Prod(ops ...Expr) Expr { return Mul(ops) }

// Ind builds an Indirect (data-dependent) node.
func Ind(table string, inner Expr) Expr { return Indirect{Table: table, Inner: inner} }

// Quot builds an integer-division node.
func Quot(num, den Expr) Expr { return Div{Num: num, Den: den} }

// Rem builds a remainder node.
func Rem(num, den Expr) Expr { return Mod{Num: num, Den: den} }

// Substitute returns e with every ParamVar whose name appears in binds
// replaced by the bound expression. It is used to apply "let" bindings such
// as WIDTH = gridDim.x * blockDim.x before analysis, mirroring the paper's
// backward substitution into prime components (Figure 6).
func Substitute(e Expr, binds map[string]Expr) Expr {
	if len(binds) == 0 {
		return e
	}
	switch t := e.(type) {
	case Const:
		return t
	case Var:
		if t.Kind == ParamVar {
			if repl, ok := binds[t.Name]; ok {
				// Allow chained bindings (WIDTH -> TILE*gDim.x, TILE -> 16).
				return Substitute(repl, binds)
			}
		}
		return t
	case Add:
		out := make(Add, len(t))
		for i, op := range t {
			out[i] = Substitute(op, binds)
		}
		return out
	case Mul:
		out := make(Mul, len(t))
		for i, op := range t {
			out[i] = Substitute(op, binds)
		}
		return out
	case Neg:
		return Neg{X: Substitute(t.X, binds)}
	case Indirect:
		return Indirect{Table: t.Table, Inner: Substitute(t.Inner, binds)}
	case Div:
		return Div{Num: Substitute(t.Num, binds), Den: Substitute(t.Den, binds)}
	case Mod:
		return Mod{Num: Substitute(t.Num, binds), Den: Substitute(t.Den, binds)}
	default:
		panic(fmt.Sprintf("symbolic: unknown expression type %T", e))
	}
}

// Walk visits every node of e in depth-first order.
func Walk(e Expr, visit func(Expr)) {
	visit(e)
	switch t := e.(type) {
	case Add:
		for _, op := range t {
			Walk(op, visit)
		}
	case Mul:
		for _, op := range t {
			Walk(op, visit)
		}
	case Neg:
		Walk(t.X, visit)
	case Indirect:
		Walk(t.Inner, visit)
	case Div:
		Walk(t.Num, visit)
		Walk(t.Den, visit)
	case Mod:
		Walk(t.Num, visit)
		Walk(t.Den, visit)
	}
}

// HasIndirect reports whether e contains a data-dependent component.
func HasIndirect(e Expr) bool {
	found := false
	Walk(e, func(n Expr) {
		if _, ok := n.(Indirect); ok {
			found = true
		}
	})
	return found
}

// Vars returns the set of variable kinds appearing anywhere in e (including
// inside opaque nodes) and the set of parameter names.
func Vars(e Expr) (kinds map[VarKind]bool, params map[string]bool) {
	kinds = make(map[VarKind]bool)
	params = make(map[string]bool)
	Walk(e, func(n Expr) {
		if v, ok := n.(Var); ok {
			kinds[v.Kind] = true
			if v.Kind == ParamVar {
				params[v.Name] = true
			}
		}
	})
	return kinds, params
}

// sortedParamNames returns params' keys in sorted order (deterministic
// printing and hashing).
func sortedParamNames(params map[string]bool) []string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
