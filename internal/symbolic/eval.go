package symbolic

import "fmt"

// Env supplies concrete values for the prime variables when evaluating an
// expression. The zero value is usable: all variables evaluate to zero and
// indirect loads resolve to zero.
type Env struct {
	Tid  [3]int64 // threadIdx.{x,y,z}
	Bid  [3]int64 // blockIdx.{x,y,z}
	BDim [3]int64 // blockDim.{x,y,z}
	GDim [3]int64 // gridDim.{x,y,z}
	M    int64    // outer-loop induction variable

	// Params holds launch-time constants that were not substituted away.
	Params map[string]int64

	// Resolve supplies values for Indirect nodes: the element loaded from
	// the named table at the given index. A nil Resolve yields zero.
	Resolve func(table string, index int64) int64
}

// Value returns the value of a variable kind under the environment.
func (env *Env) Value(v Var) int64 {
	switch v.Kind {
	case TidX, TidY, TidZ:
		return env.Tid[v.Kind-TidX]
	case BidX, BidY, BidZ:
		return env.Bid[v.Kind-BidX]
	case BDimX, BDimY, BDimZ:
		return env.BDim[v.Kind-BDimX]
	case GDimX, GDimY, GDimZ:
		return env.GDim[v.Kind-GDimX]
	case Induction:
		return env.M
	case ParamVar:
		return env.Params[v.Name]
	default:
		panic(fmt.Sprintf("symbolic: unknown variable kind %v", v.Kind))
	}
}

// Eval evaluates e under env. Division by zero in Div/Mod nodes evaluates
// to zero rather than panicking: synthetic traces must stay total even for
// degenerate launch parameters.
func Eval(e Expr, env *Env) int64 {
	switch t := e.(type) {
	case Const:
		return int64(t)
	case Var:
		return env.Value(t)
	case Add:
		var sum int64
		for _, op := range t {
			sum += Eval(op, env)
		}
		return sum
	case Mul:
		prod := int64(1)
		for _, op := range t {
			prod *= Eval(op, env)
		}
		return prod
	case Neg:
		return -Eval(t.X, env)
	case Indirect:
		idx := Eval(t.Inner, env)
		if env.Resolve == nil {
			return 0
		}
		return env.Resolve(t.Table, idx)
	case Div:
		den := Eval(t.Den, env)
		if den == 0 {
			return 0
		}
		return Eval(t.Num, env) / den
	case Mod:
		den := Eval(t.Den, env)
		if den == 0 {
			return 0
		}
		return Eval(t.Num, env) % den
	default:
		panic(fmt.Sprintf("symbolic: unknown expression type %T", e))
	}
}
