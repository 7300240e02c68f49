// Package kir defines the kernel intermediate representation shared by the
// static analyzer, the trace generator, and the timing engine.
//
// A kernel is modeled the way the paper's compiler pass sees it (Figure 6):
// a grid/block geometry, an outer loop with induction variable m, and a set
// of global-memory accesses whose element indices are symbolic expressions
// over the prime variables. The same expression is classified statically by
// internal/compiler and evaluated per thread by internal/trace, so analysis
// and trace are two views of one definition — there is no separate
// "workload description" that could drift from what the analyzer saw.
package kir

import (
	"fmt"
	"reflect"

	"ladm/internal/symbolic"
)

// Dim3 is a CUDA-style 3-component dimension.
type Dim3 struct{ X, Y, Z int }

// Dim2 builds a 2D dimension (Z=1).
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Dim1 builds a 1D dimension.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Count returns the number of elements the dimension spans.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x < 1 {
		x = 1
	}
	if y < 1 {
		y = 1
	}
	if z < 1 {
		z = 1
	}
	return x * y * z
}

func (d Dim3) String() string {
	if d.Z > 1 {
		return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z)
	}
	return fmt.Sprintf("(%d,%d)", d.X, d.Y)
}

// AccessMode distinguishes loads from stores.
type AccessMode int

const (
	// Load is a global read.
	Load AccessMode = iota
	// Store is a global write.
	Store
)

func (m AccessMode) String() string {
	if m == Store {
		return "store"
	}
	return "load"
}

// Phase places an access relative to the kernel's outer loop.
type Phase int

const (
	// InLoop accesses execute on every iteration of the outer loop.
	InLoop Phase = iota
	// PreLoop accesses execute once before the loop (m fixed at 0).
	PreLoop
	// PostLoop accesses execute once after the loop (m fixed at Iters-1).
	PostLoop
)

func (p Phase) String() string {
	switch p {
	case PreLoop:
		return "pre"
	case PostLoop:
		return "post"
	default:
		return "loop"
	}
}

// Access is one global-memory access site of a kernel.
type Access struct {
	// Array names the data structure (the kernel argument / allocation ID).
	Array string
	// Index is the element index expression over prime variables. Lets of
	// the enclosing kernel are substituted before analysis or evaluation.
	Index symbolic.Expr
	// ElemSize is the accessed element's size in bytes.
	ElemSize int
	// Mode distinguishes loads from stores.
	Mode AccessMode
	// Phase places the access relative to the outer loop.
	Phase Phase
	// Pred, when non-nil, predicates the access: a thread performs it only
	// when Pred evaluates > 0 (models `if` guards and per-thread trip
	// counts of irregular kernels).
	Pred symbolic.Expr
	// Weight is the relative execution frequency used when merging
	// classifications per data structure (default 1).
	Weight int
}

// EffWeight returns Weight with the default applied.
func (a *Access) EffWeight() int {
	if a.Weight <= 0 {
		return 1
	}
	return a.Weight
}

// Kernel is one GPU kernel.
type Kernel struct {
	Name  string
	Grid  Dim3
	Block Dim3
	// Lets bind launch parameters to expressions in prime variables — the
	// backward substitution of the paper's analysis (e.g. WIDTH ->
	// gDim.x*bDim.x, TILE -> 16).
	Lets map[string]symbolic.Expr
	// Params bind remaining parameters to launch-time integers for trace
	// generation (the analyzer treats them as loop-invariant symbols).
	Params map[string]int64
	// Iters is the trip count of the outer loop (1 for loop-free kernels).
	Iters int
	// ItersForTB, when non-nil, bounds the trip count per threadblock
	// (linear id) — irregular kernels stop a block once every resident
	// thread's predicate is exhausted. The effective count is
	// min(Iters, ItersForTB(tb)), at least 1.
	ItersForTB func(tb int) int
	// ALUPerIter approximates non-memory warp instructions per iteration
	// (used for MPKI denominators and compute delay).
	ALUPerIter int
	// ComputeCyclesPerIter is the modelled compute time separating memory
	// phases of consecutive iterations.
	ComputeCyclesPerIter int
	// Accesses are the kernel's global-memory access sites.
	Accesses []Access
}

// Is2D reports whether the kernel has a two-dimensional grid, the
// condition under which Algorithm 1 searches for row/column sharing.
func (k *Kernel) Is2D() bool { return k.Grid.Y > 1 }

// WarpsPerTB returns the number of warps per threadblock.
func (k *Kernel) WarpsPerTB(warpSize int) int {
	n := (k.Block.Count() + warpSize - 1) / warpSize
	if n < 1 {
		n = 1
	}
	return n
}

// EffIters returns the trip count with the loop-free default applied.
func (k *Kernel) EffIters() int {
	if k.Iters < 1 {
		return 1
	}
	return k.Iters
}

// EffItersFor returns the trip count for one threadblock, honouring
// ItersForTB.
func (k *Kernel) EffItersFor(tb int) int {
	n := k.EffIters()
	if k.ItersForTB != nil {
		if v := k.ItersForTB(tb); v < n {
			n = v
		}
	}
	if n < 1 {
		return 1
	}
	return n
}

// SubstitutedIndex returns access i's index with the kernel's Lets applied.
func (k *Kernel) SubstitutedIndex(i int) symbolic.Expr {
	return symbolic.Substitute(k.Accesses[i].Index, k.Lets)
}

// SubstitutedPred returns access i's predicate with Lets applied, or nil.
func (k *Kernel) SubstitutedPred(i int) symbolic.Expr {
	if k.Accesses[i].Pred == nil {
		return nil
	}
	return symbolic.Substitute(k.Accesses[i].Pred, k.Lets)
}

// BaseEnv returns an evaluation environment with the kernel's geometry and
// parameters bound. Callers fill Tid/Bid/M per thread.
func (k *Kernel) BaseEnv() symbolic.Env {
	return symbolic.Env{
		BDim:   [3]int64{int64(k.Block.X), int64(k.Block.Y), int64(k.Block.Z)},
		GDim:   [3]int64{int64(k.Grid.X), int64(k.Grid.Y), int64(k.Grid.Z)},
		Params: k.Params,
	}
}

// Validate checks structural invariants of the kernel definition.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kir: kernel without a name")
	}
	if k.Grid.X < 1 || k.Block.X < 1 {
		return fmt.Errorf("kir: kernel %q has empty grid or block", k.Name)
	}
	if k.Block.Count() > 1024 {
		return fmt.Errorf("kir: kernel %q block %v exceeds 1024 threads", k.Name, k.Block)
	}
	if len(k.Accesses) == 0 {
		return fmt.Errorf("kir: kernel %q has no memory accesses", k.Name)
	}
	for i := range k.Accesses {
		a := &k.Accesses[i]
		if a.Array == "" {
			return fmt.Errorf("kir: kernel %q access %d has no array", k.Name, i)
		}
		if a.Index == nil {
			return fmt.Errorf("kir: kernel %q access %d has no index", k.Name, i)
		}
		if a.ElemSize <= 0 {
			return fmt.Errorf("kir: kernel %q access %d has bad element size", k.Name, i)
		}
	}
	return nil
}

// AllocSpec declares one managed allocation of a workload.
type AllocSpec struct {
	ID       string
	Bytes    uint64
	ElemSize int
}

// Launch is one kernel invocation within a workload.
type Launch struct {
	Kernel *Kernel
	// Times repeats the launch (default 1); models iterative kernels.
	Times int
}

// EffTimes returns Times with the default applied.
func (l Launch) EffTimes() int {
	if l.Times < 1 {
		return 1
	}
	return l.Times
}

// Workload is a complete benchmark: allocations, kernel launches, and the
// synthetic data tables backing Indirect index components.
type Workload struct {
	Name  string
	Suite string

	Allocs   []AllocSpec
	Launches []Launch

	// Tables backs symbolic.Indirect nodes: table name -> element values.
	// Out-of-range lookups clamp (see Lookup).
	Tables map[string][]int64
}

// Resolver returns an Indirect resolver over the workload's tables.
// Missing tables resolve to zero; indices clamp to the table bounds so a
// degenerate synthetic input can never crash trace generation.
func (w *Workload) Resolver() func(table string, idx int64) int64 {
	return func(table string, idx int64) int64 {
		return Lookup(w.Tables[table], idx)
	}
}

// Lookup reads t[idx] with Resolver's semantics: an empty (or missing)
// table reads zero, and idx clamps to the table bounds.
func Lookup(t []int64, idx int64) int64 {
	if len(t) == 0 {
		return 0
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= int64(len(t)) {
		idx = int64(len(t)) - 1
	}
	return t[idx]
}

// Alloc returns the spec with the given id, or nil.
func (w *Workload) Alloc(id string) *AllocSpec {
	for i := range w.Allocs {
		if w.Allocs[i].ID == id {
			return &w.Allocs[i]
		}
	}
	return nil
}

// Equal reports whether two workloads describe the same benchmark — the
// same allocations, launches, kernels, symbolic accesses and backing
// tables. It exists so a sweep job can be safely identified with a
// registry-built workload (and thus with a cacheable content key): a
// mutated copy (changed launch repetitions, patched tables, resized
// grids) compares unequal and falls off the cached path.
//
// Kernel definitions are pure data except ItersForTB, a function;
// functions have no useful equality, so it is compared pointwise over
// its whole finite domain (the kernel's grid). Two kernels that agree
// everywhere on that domain behave identically in the simulator.
func Equal(a, b *Workload) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Name != b.Name || a.Suite != b.Suite {
		return false
	}
	if !reflect.DeepEqual(a.Allocs, b.Allocs) || !reflect.DeepEqual(a.Tables, b.Tables) {
		return false
	}
	if len(a.Launches) != len(b.Launches) {
		return false
	}
	for i := range a.Launches {
		if a.Launches[i].Times != b.Launches[i].Times {
			return false
		}
		if !kernelEqual(a.Launches[i].Kernel, b.Launches[i].Kernel) {
			return false
		}
	}
	return true
}

func kernelEqual(a, b *Kernel) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Name != b.Name || a.Grid != b.Grid || a.Block != b.Block ||
		a.Iters != b.Iters || a.ALUPerIter != b.ALUPerIter ||
		a.ComputeCyclesPerIter != b.ComputeCyclesPerIter {
		return false
	}
	if !reflect.DeepEqual(a.Lets, b.Lets) || !reflect.DeepEqual(a.Params, b.Params) {
		return false
	}
	if !reflect.DeepEqual(a.Accesses, b.Accesses) {
		return false
	}
	if (a.ItersForTB == nil) != (b.ItersForTB == nil) {
		return false
	}
	if a.ItersForTB != nil {
		for tb, n := 0, a.Grid.Count(); tb < n; tb++ {
			if a.ItersForTB(tb) != b.ItersForTB(tb) {
				return false
			}
		}
	}
	return true
}

// TotalBytes returns the workload's total allocation footprint.
func (w *Workload) TotalBytes() uint64 {
	var total uint64
	for i := range w.Allocs {
		total += w.Allocs[i].Bytes
	}
	return total
}

// TotalTBs returns the number of threadblocks launched across all kernel
// invocations.
func (w *Workload) TotalTBs() int {
	total := 0
	for _, l := range w.Launches {
		total += l.Kernel.Grid.Count() * l.EffTimes()
	}
	return total
}

// Validate checks the workload definition: kernels are valid, every
// accessed array has an allocation, and element sizes are consistent.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("kir: workload without a name")
	}
	if len(w.Launches) == 0 {
		return fmt.Errorf("kir: workload %q launches no kernels", w.Name)
	}
	ids := make(map[string]*AllocSpec, len(w.Allocs))
	for i := range w.Allocs {
		a := &w.Allocs[i]
		if a.Bytes == 0 || a.ElemSize <= 0 {
			return fmt.Errorf("kir: workload %q alloc %q has bad size", w.Name, a.ID)
		}
		if _, dup := ids[a.ID]; dup {
			return fmt.Errorf("kir: workload %q duplicates alloc %q", w.Name, a.ID)
		}
		ids[a.ID] = a
	}
	for _, l := range w.Launches {
		if err := l.Kernel.Validate(); err != nil {
			return fmt.Errorf("workload %q: %w", w.Name, err)
		}
		for i := range l.Kernel.Accesses {
			acc := &l.Kernel.Accesses[i]
			spec := ids[acc.Array]
			if spec == nil {
				return fmt.Errorf("kir: workload %q kernel %q accesses undeclared array %q",
					w.Name, l.Kernel.Name, acc.Array)
			}
			if spec.ElemSize != acc.ElemSize {
				return fmt.Errorf("kir: workload %q array %q: access elem size %d != alloc elem size %d",
					w.Name, acc.Array, acc.ElemSize, spec.ElemSize)
			}
		}
	}
	return nil
}
