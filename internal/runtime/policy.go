// Package runtime implements the LASP runtime of the paper (Figure 5 and
// Section III-D) and the baseline policies it is compared against. At
// "kernel launch" it combines the compiler's locality table with the
// machine topology and the dynamic allocation sizes, and emits a Plan:
// where every page of every data structure goes, which threadblock
// scheduler each kernel uses, and which L2 insertion policy each request
// gets (the compiler-assisted remote-request bypassing of Section III-E).
package runtime

import (
	"fmt"
	"strings"

	"ladm/internal/compiler"
)

// PlacementKind selects the page-placement strategy of a policy.
type PlacementKind int

const (
	// PlaceInterleave: pages round-robin across nodes at one-page
	// granularity (the baseline of Vijayaraghavan et al.).
	PlaceInterleave PlacementKind = iota
	// PlaceFirstTouch: pages fault to the node that touches them first
	// (Arunkumar et al.'s Batch+FT).
	PlaceFirstTouch
	// PlaceKernelWide: each structure split into N contiguous chunks
	// (Milic et al.).
	PlaceKernelWide
	// PlaceCODA: page-aligned round-robin interleaving (Kim et al.; the
	// sub-page hardware support is modelled as perfect page alignment).
	PlaceCODA
	// PlaceLASP: per-structure placement from the locality table
	// (stride-aware, row-based, column-based, or kernel-wide fallback).
	PlaceLASP
	// PlaceManual: programmer-supplied locality descriptor (Vijaykumar et
	// al.'s Locality Descriptor comparison point).
	PlaceManual
)

func (p PlacementKind) String() string {
	switch p {
	case PlaceInterleave:
		return "interleave"
	case PlaceFirstTouch:
		return "first-touch"
	case PlaceKernelWide:
		return "kernel-wide"
	case PlaceCODA:
		return "coda"
	case PlaceLASP:
		return "lasp"
	case PlaceManual:
		return "manual"
	default:
		return fmt.Sprintf("PlacementKind(%d)", int(p))
	}
}

// SchedKind selects the threadblock-scheduling strategy of a policy.
type SchedKind int

const (
	// SchedRR: one-threadblock round-robin.
	SchedRR SchedKind = iota
	// SchedStaticBatch: fixed-size batched round-robin (Batch+FT).
	SchedStaticBatch
	// SchedKernelWide: contiguous grid chunks.
	SchedKernelWide
	// SchedCODA: page-aligned batches, round-robin.
	SchedCODA
	// SchedLASP: per-kernel decision from the locality table (align-aware,
	// row-binding, column-binding, or kernel-wide).
	SchedLASP
	// SchedManual: programmer-supplied scheduler choice.
	SchedManual
)

func (s SchedKind) String() string {
	switch s {
	case SchedRR:
		return "rr"
	case SchedStaticBatch:
		return "static-batch"
	case SchedKernelWide:
		return "kernel-wide"
	case SchedCODA:
		return "coda"
	case SchedLASP:
		return "lasp"
	case SchedManual:
		return "manual"
	default:
		return fmt.Sprintf("SchedKind(%d)", int(s))
	}
}

// CacheKind selects the remote-caching insertion policy.
type CacheKind int

const (
	// CacheRTWICE caches remote data at both the home and the requesting
	// L2 (the dynamic shared L2 of Milic et al.).
	CacheRTWICE CacheKind = iota
	// CacheRONCE bypasses the home L2 for remote-origin fills.
	CacheRONCE
	// CacheCRB selects RONCE for ITL workloads and RTWICE otherwise —
	// LADM's compiler-assisted remote-request bypassing.
	CacheCRB
)

func (c CacheKind) String() string {
	switch c {
	case CacheRTWICE:
		return "rtwice"
	case CacheRONCE:
		return "ronce"
	case CacheCRB:
		return "crb"
	default:
		return fmt.Sprintf("CacheKind(%d)", int(c))
	}
}

// ResolveCache returns the cache kind a policy with cache kind c applies
// to a workload whose dominant locality (Plan.Dominant) is dom. CRB
// follows the paper (§III-E): remote-once bypassing exactly for ITL
// workloads, so it resolves to RONCE there and to RTWICE everywhere
// else; every other kind is returned as is. Prepare decides caching
// through it, and core.Sweep keys its jobs through it, so a CRB job and
// its RONCE or RTWICE twin are known to run the same plan.
func ResolveCache(c CacheKind, dom compiler.LocalityType) CacheKind {
	if c != CacheCRB {
		return c
	}
	if dom == compiler.IntraThread {
		return CacheRONCE
	}
	return CacheRTWICE
}

// Policy is a complete NUMA management configuration.
type Policy struct {
	Name      string
	Placement PlacementKind
	Sched     SchedKind
	Cache     CacheKind
	// Hierarchical makes schedulers and placement aware of the
	// GPU-of-chiplets hierarchy (H-CODA, LASP).
	Hierarchical bool
	// StaticBatch is the batch size for SchedStaticBatch.
	StaticBatch int
	// ChargeFaults makes first-touch page faults cost time; false models
	// the paper's "Batch+FT-optimal".
	ChargeFaults bool
	// Manual carries the locality descriptor for PlaceManual/SchedManual.
	Manual *Descriptor
	// ProactivePaging hides host-fetch latency under memory
	// oversubscription by staging pages ahead of their threadblocks (the
	// LASP extension sketched in the paper's related work). The transfer
	// bandwidth is still charged.
	ProactivePaging bool
	// StealTBs lets an SM whose node queue has drained pull threadblocks
	// from the deepest other node's queue instead of idling. Off in every
	// preset: stealing trades the locality the placement policy set up for
	// load balance, so it is an experimental knob, not part of any paper
	// configuration. Steals are counted in telemetry (tb_steals).
	StealTBs bool
}

// The policy presets evaluated in the paper.

// BaselineRR is the round-robin placement and scheduling baseline.
func BaselineRR() Policy {
	return Policy{Name: "baseline-rr", Placement: PlaceInterleave, Sched: SchedRR, Cache: CacheRTWICE}
}

// BatchFTOptimal is Batch+FT with zero-cost page faults.
func BatchFTOptimal() Policy {
	return Policy{Name: "batch+ft-optimal", Placement: PlaceFirstTouch, Sched: SchedStaticBatch,
		StaticBatch: 8, Cache: CacheRTWICE}
}

// BatchFT is Batch+FT with realistic fault costs (20-50us per the paper).
func BatchFT() Policy {
	p := BatchFTOptimal()
	p.Name = "batch+ft"
	p.ChargeFaults = true
	return p
}

// KernelWide is Milic et al.'s kernel-wide grid and data partitioning.
func KernelWide() Policy {
	return Policy{Name: "kernel-wide", Placement: PlaceKernelWide, Sched: SchedKernelWide, Cache: CacheRTWICE}
}

// CODA is Kim et al.'s alignment-aware static analysis (flat).
func CODA() Policy {
	return Policy{Name: "coda", Placement: PlaceCODA, Sched: SchedCODA, Cache: CacheRTWICE}
}

// HCODA is CODA extended with hierarchy awareness (the paper's H-CODA
// comparison point).
func HCODA() Policy {
	return Policy{Name: "h-coda", Placement: PlaceCODA, Sched: SchedCODA, Cache: CacheRTWICE, Hierarchical: true}
}

// LASPRTwice is LADM's scheduler and placement with the default
// cache-remote-twice insertion.
func LASPRTwice() Policy {
	return Policy{Name: "lasp+rtwice", Placement: PlaceLASP, Sched: SchedLASP, Cache: CacheRTWICE,
		Hierarchical: true, ProactivePaging: true}
}

// LASPROnce is LASP with unconditional remote-once bypassing.
func LASPROnce() Policy {
	return Policy{Name: "lasp+ronce", Placement: PlaceLASP, Sched: SchedLASP, Cache: CacheRONCE,
		Hierarchical: true, ProactivePaging: true}
}

// LADM is the full system: LASP plus compiler-assisted remote-request
// bypassing.
func LADM() Policy {
	return Policy{Name: "ladm", Placement: PlaceLASP, Sched: SchedLASP, Cache: CacheCRB,
		Hierarchical: true, ProactivePaging: true}
}

// All returns the named policy presets in presentation order.
func All() []Policy {
	return []Policy{
		BaselineRR(), BatchFTOptimal(), BatchFT(), KernelWide(),
		CODA(), HCODA(), LASPRTwice(), LASPROnce(), LADM(),
	}
}

// Names lists the policy preset names in presentation order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.Name
	}
	return out
}

// ByName returns the preset with the given name.
func ByName(name string) (Policy, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("runtime: unknown policy %q (valid: %s)",
		name, strings.Join(Names(), " "))
}
