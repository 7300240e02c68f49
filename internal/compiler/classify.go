// Package compiler implements LADM's threadblock-centric static index
// analysis (Sections III-B and III-C of the paper): every global-memory
// access of a kernel is normalized into canonical polynomial form, split
// into loop-invariant and loop-variant groups, and classified into one of
// the seven rows of the paper's Table II by Algorithm 1. The results are
// assembled into the locality table (Figure 5) that the LASP runtime reads
// at kernel-launch time.
package compiler

import (
	"fmt"

	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
)

// LocalityType is an access's classification — the rows of Table II.
type LocalityType int

const (
	// Unclassified is row 7: no pattern matched; the runtime falls back to
	// kernel-wide placement and scheduling.
	Unclassified LocalityType = iota
	// NoLocality is row 1: threadblocks touch disjoint datablocks,
	// possibly striding between them on loop iterations.
	NoLocality
	// RowHorizontal is row 2: a grid row shares a row of datablocks,
	// threadblocks move horizontally.
	RowHorizontal
	// ColHorizontal is row 3: a grid column shares datablocks,
	// threadblocks move horizontally.
	ColHorizontal
	// RowVertical is row 4: a grid row shares datablocks, threadblocks
	// move vertically (whole data rows skipped per iteration).
	RowVertical
	// ColVertical is row 5: a grid column shares datablocks, threadblocks
	// move vertically.
	ColVertical
	// IntraThread is row 6: consecutive loop iterations of one thread
	// touch adjacent elements (ITL).
	IntraThread
)

func (t LocalityType) String() string {
	switch t {
	case NoLocality:
		return "NL"
	case RowHorizontal:
		return "RCL-row-hshare"
	case ColHorizontal:
		return "RCL-col-hshare"
	case RowVertical:
		return "RCL-row-vshare"
	case ColVertical:
		return "RCL-col-vshare"
	case IntraThread:
		return "ITL"
	default:
		return "unclassified"
	}
}

// TableRow returns the Table II row number (1-7).
func (t LocalityType) TableRow() int {
	switch t {
	case NoLocality:
		return 1
	case RowHorizontal:
		return 2
	case ColHorizontal:
		return 3
	case RowVertical:
		return 4
	case ColVertical:
		return 5
	case IntraThread:
		return 6
	default:
		return 7
	}
}

// IsRCL reports whether the type is one of the row/column-locality rows
// (2-5).
func (t LocalityType) IsRCL() bool {
	switch t {
	case RowHorizontal, ColHorizontal, RowVertical, ColVertical:
		return true
	}
	return false
}

// Specificity ranks locality types for tie-breaking, more actionable
// classifications higher: RCL > NL > ITL > unclassified.
func (t LocalityType) Specificity() int {
	switch {
	case t.IsRCL():
		return 3
	case t == NoLocality:
		return 2
	case t == IntraThread:
		return 1
	default:
		return 0
	}
}

// RowBinding reports whether the type calls for the row-binding scheduler
// (rows 2 and 4: a grid row shares data).
func (t LocalityType) RowBinding() bool {
	return t == RowHorizontal || t == RowVertical
}

// ColBinding reports whether the type calls for the column-binding
// scheduler (rows 3 and 5).
func (t LocalityType) ColBinding() bool {
	return t == ColHorizontal || t == ColVertical
}

// VerticalMotion reports whether threadblocks stride whole data rows per
// iteration (rows 4 and 5: column-based placement).
func (t LocalityType) VerticalMotion() bool {
	return t == RowVertical || t == ColVertical
}

// Class is the result of classifying one access.
type Class struct {
	Type LocalityType
	// Stride is the per-iteration element stride (valid for NoLocality and
	// the RCL rows; zero polynomial for loop-free accesses).
	Stride sym.Poly
	// HasIndirect records a data-dependent index component.
	HasIndirect bool
	// Invariant and Variant are the split polynomial groups (kept for
	// diagnostics and the locality-table dump).
	Invariant, Variant sym.Poly
}

// StrideElems evaluates the stride under env (launch-time geometry).
func (c Class) StrideElems(env *sym.Env) int64 {
	return c.Stride.Eval(env)
}

// Classify runs Algorithm 1 on a single index expression. is2D tells the
// analysis whether the grid has a Y dimension (row/column sharing is only
// meaningful for 2D grids).
func Classify(index sym.Expr, is2D bool) Class {
	p := sym.Normalize(index)
	inv, vr := p.SplitLoop()
	c := Class{
		Type:        Unclassified,
		HasIndirect: sym.HasIndirect(index),
		Invariant:   inv,
		Variant:     vr,
	}

	// Line 1-2: loopVariant == m  =>  intra-thread locality.
	if vr.IsExactlyM() {
		c.Type = IntraThread
		c.Stride = sym.Normalize(sym.C(1))
		return c
	}

	// A data-dependent or non-affine component in the loop-invariant group
	// (X[Y[tid]], div/mod-wrapped indices) makes the start position
	// unpredictable: row 7, unclassified (the paper's explicit example).
	if inv.HasOpaque() {
		return c
	}

	// Line 3-5: invariant depends on bx (1D) or bx and by (2D)  =>  no
	// datablock locality; derive the stride.
	noLoc := false
	if is2D {
		noLoc = inv.DependsOn(sym.BidX) && inv.DependsOn(sym.BidY)
	} else {
		noLoc = inv.DependsOn(sym.BidX)
	}
	if noLoc {
		if vr.IsZero() {
			c.Type = NoLocality
			return c
		}
		stride, ok := vr.DivideByM()
		if !ok {
			return c // non-linear in m: unclassified
		}
		c.Type = NoLocality
		c.Stride = stride
		return c
	}

	// Lines 6-15: 2D sharing patterns.
	if !is2D {
		return c
	}
	var shareRow bool
	switch {
	case inv.DependsOn(sym.BidY) && !inv.DependsOn(sym.BidX):
		shareRow = true // all threadblocks of a grid row start together
	case inv.DependsOn(sym.BidX) && !inv.DependsOn(sym.BidY):
		shareRow = false // all threadblocks of a grid column start together
	default:
		// Invariant depends on neither block index: every threadblock
		// starts at the same datablock. Treat as row-shared (any binding
		// preserves the sharing); motion still decides placement.
		if vr.IsZero() {
			return c
		}
		shareRow = true
	}

	stride, ok := vr.DivideByM()
	if !ok && !vr.IsZero() {
		return c
	}
	c.Stride = stride

	vertical := vr.DependsOn(sym.GDimX)
	switch {
	case shareRow && !vertical:
		c.Type = RowHorizontal
	case !shareRow && !vertical:
		c.Type = ColHorizontal
	case shareRow && vertical:
		c.Type = RowVertical
	default:
		c.Type = ColVertical
	}
	return c
}

// ClassifyAccess substitutes the kernel's Lets into access i's index and
// classifies it.
func ClassifyAccess(k *kir.Kernel, i int) Class {
	return Classify(k.SubstitutedIndex(i), k.Is2D())
}

// DatablockBytes computes the size of the datablock of access i — the
// bytes one threadblock touches in one outer-loop iteration (the span of
// the index over threadblock (0,0) at m=0). It drives Equation 2
// (minimum threadblock batch) and the stride-aware interleave of
// Equation 1. Indirect components resolve to zero, which conservatively
// collapses data-dependent spread.
func DatablockBytes(k *kir.Kernel, i int) uint64 {
	acc := &k.Accesses[i]
	idx := k.SubstitutedIndex(i)
	env := k.BaseEnv()
	env.Resolve = func(string, int64) int64 { return 0 }

	var minI, maxI int64
	first := true
	// The index is affine in tid components over a fixed block, so the
	// extremes are attained at corner threads; evaluating the full corner
	// set is cheap and stays correct for opaque (div/mod) components too.
	xs := cornerAndEdges(k.Block.X)
	ys := cornerAndEdges(k.Block.Y)
	zs := cornerAndEdges(k.Block.Z)
	for _, z := range zs {
		for _, y := range ys {
			for _, x := range xs {
				env.Tid = [3]int64{x, y, z}
				v := sym.Eval(idx, &env)
				if first || v < minI {
					minI = v
				}
				if first || v > maxI {
					maxI = v
				}
				first = false
			}
		}
	}
	span := uint64(maxI-minI+1) * uint64(acc.ElemSize)
	if span < uint64(acc.ElemSize) {
		span = uint64(acc.ElemSize)
	}
	return span
}

// cornerAndEdges samples thread coordinates 0, 1, mid and n-1 (affine
// extremes plus a probe against pathological non-affine indices).
func cornerAndEdges(n int) []int64 {
	if n <= 1 {
		return []int64{0}
	}
	if n == 2 {
		return []int64{0, 1}
	}
	return []int64{0, 1, int64(n) / 2, int64(n) - 1}
}

// MinTBBatch computes Equation 2: the minimum number of consecutive
// threadblocks per node that keeps datablocks page-aligned.
func MinTBBatch(pageBytes, datablockBytes uint64) int {
	if datablockBytes == 0 {
		return 1
	}
	b := int(pageBytes / datablockBytes)
	if b < 1 {
		b = 1
	}
	return b
}

// InterleaveGranularityPages computes Equation 1: the page-interleaving
// granularity that keeps a strided access's datablocks on one node —
// stride/numNodes, expressed in whole pages.
func InterleaveGranularityPages(strideBytes uint64, nodes int, pageBytes uint64) int {
	if nodes < 1 {
		panic(fmt.Sprintf("compiler: bad node count %d", nodes))
	}
	per := strideBytes / uint64(nodes)
	if per < pageBytes {
		return 1
	}
	return int(per / pageBytes)
}
