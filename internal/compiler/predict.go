package compiler

import (
	"ladm/internal/kir"
	sym "ladm/internal/symbolic"
)

// AffineAccess is the closed-form shape of one access site, extracted
// once per kernel and then evaluated per (threadblock, iteration) pair in
// O(1): the element index of every thread of threadblock (bx, by) at
// iteration m lies in [TMin, TMax] + CoefBx*bx + CoefBy*by + CoefM*m.
// The analytic tier (internal/analytic) predicts sector traffic from
// these spans without generating a single transaction; extraction fails
// (ok=false) exactly when the index is not affine in the prime variables
// — indirect components, div/mod of thread or loop variables, or
// non-separable products like bid.x*m — which is the tier's cue to
// escalate the job to the event engine.
type AffineAccess struct {
	// CoefBx, CoefBy are the element steps per blockIdx.x / blockIdx.y.
	CoefBx, CoefBy int64
	// CoefM is the element step per outer-loop iteration (the paper's
	// per-iteration stride; 0 for loop-invariant accesses).
	CoefM int64
	// TMin, TMax bound the index over the threads of block (0,0) at m=0.
	TMin, TMax int64
	// ThreadStride is the element step per tid.x — consecutive warp
	// lanes sit ThreadStride elements apart, which decides whether the
	// warp's touches coalesce into shared sectors or scatter.
	ThreadStride int64
	// CoefTy, CoefTz are the element steps per tid.y / tid.z: the row
	// strides of the block's touch lattice.
	CoefTy, CoefTz int64
	// ElemBytes is the accessed element's size.
	ElemBytes int64
}

// AffineForAccess extracts the affine shape of access i of kernel k.
// ok=false means the access has no well-defined affine form: its traffic
// depends on data or on non-linear index arithmetic, and only the event
// engine can measure it.
func AffineForAccess(k *kir.Kernel, i int) (AffineAccess, bool) {
	idx := k.SubstitutedIndex(i)
	if sym.HasIndirect(idx) {
		return AffineAccess{}, false
	}
	p := sym.Normalize(idx)
	// Opaque atoms (div/mod) over launch constants evaluate to a fixed
	// offset and are harmless; over thread, block or loop variables they
	// wrap non-monotonically and break span reasoning.
	for _, t := range p.Terms {
		for _, a := range t.Atoms {
			if !a.IsOpaque() {
				continue
			}
			for kind := sym.TidX; kind <= sym.BidZ; kind++ {
				if a.DependsOn(kind) {
					return AffineAccess{}, false
				}
			}
			if a.DependsOn(sym.Induction) {
				return AffineAccess{}, false
			}
		}
	}
	if p.DependsOn(sym.BidZ) {
		return AffineAccess{}, false
	}

	env := k.BaseEnv()
	env.Resolve = func(string, int64) int64 { return 0 }
	coef := func(kind sym.VarKind) (int64, bool) {
		cp, ok := p.CoefficientOf(kind)
		if !ok {
			return 0, false
		}
		// A coefficient that still depends on a per-thread or per-block
		// variable is a non-separable product (bid.x*m, tid.x*bid.y, ...).
		for dep := sym.TidX; dep <= sym.BidZ; dep++ {
			if cp.DependsOn(dep) {
				return 0, false
			}
		}
		if cp.DependsOn(sym.Induction) {
			return 0, false
		}
		return cp.Eval(&env), true
	}

	var (
		aff AffineAccess
		ok  bool
	)
	if aff.CoefBx, ok = coef(sym.BidX); !ok {
		return AffineAccess{}, false
	}
	if aff.CoefBy, ok = coef(sym.BidY); !ok {
		return AffineAccess{}, false
	}
	if aff.CoefM, ok = coef(sym.Induction); !ok {
		return AffineAccess{}, false
	}
	if aff.ThreadStride, ok = coef(sym.TidX); !ok {
		return AffineAccess{}, false
	}
	// Affinity in the remaining tid components makes corner evaluation
	// exact for the block-local extremes.
	var okY, okZ bool
	if aff.CoefTy, okY = coef(sym.TidY); !okY {
		return AffineAccess{}, false
	}
	if aff.CoefTz, okZ = coef(sym.TidZ); !okZ {
		return AffineAccess{}, false
	}
	base := p.Eval(&env) // tid = bid = 0, m = 0
	aff.TMin, aff.TMax = base, base
	for _, c := range [3]int64{aff.ThreadStride * int64(k.Block.X-1),
		aff.CoefTy * int64(maxI(k.Block.Y, 1)-1), aff.CoefTz * int64(maxI(k.Block.Z, 1)-1)} {
		if c < 0 {
			aff.TMin += c
		} else {
			aff.TMax += c
		}
	}
	aff.ElemBytes = int64(k.Accesses[i].ElemSize)
	if aff.ElemBytes <= 0 {
		aff.ElemBytes = 4
	}
	return aff, true
}

// Span returns the inclusive element-index range access a touches when
// threadblock (bx, by) executes iteration m.
func (a *AffineAccess) Span(bx, by, m int64) (lo, hi int64) {
	off := a.CoefBx*bx + a.CoefBy*by + a.CoefM*m
	return a.TMin + off, a.TMax + off
}

// GridSpan returns the inclusive element-index range the access touches
// over the whole grid and all iters outer-loop iterations — the access's
// compulsory footprint, which bounds its DRAM traffic.
func (a *AffineAccess) GridSpan(gridX, gridY, iters int) (lo, hi int64) {
	lo, hi = a.TMin, a.TMax
	for _, c := range [3]int64{a.CoefBx * int64(gridX-1),
		a.CoefBy * int64(maxI(gridY, 1)-1), a.CoefM * int64(maxI(iters, 1)-1)} {
		if c < 0 {
			lo += c
		} else {
			hi += c
		}
	}
	return lo, hi
}

// PredictSectors estimates the 32-byte sectors and cache lines one warp
// batch touches over a byte span: dense spans (per-lane stride within a
// sector) touch every sector once, scattered spans cost one sector per
// active thread. threads bounds the scattered case; sectorBytes and
// lineBytes come from the machine geometry.
func PredictSectors(spanBytes, threadStrideBytes int64, threads, sectorBytes, lineBytes int) (sectors, lines int64) {
	if spanBytes <= 0 {
		return 0, 0
	}
	sb, lb := int64(sectorBytes), int64(lineBytes)
	if threadStrideBytes < 0 {
		threadStrideBytes = -threadStrideBytes
	}
	if threadStrideBytes <= sb {
		sectors = (spanBytes + sb - 1) / sb
		lines = (spanBytes + lb - 1) / lb
		return sectors, lines
	}
	sectors = int64(threads)
	if dense := (spanBytes + sb - 1) / sb; sectors > dense {
		sectors = dense
	}
	lines = sectors
	if perLine := (spanBytes + lb - 1) / lb; lines > perLine {
		lines = perLine
	}
	if lines < 1 {
		lines = 1
	}
	return sectors, lines
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
