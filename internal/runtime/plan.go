package runtime

import (
	"fmt"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/kir"
	"ladm/internal/mem/page"
	"ladm/internal/sched"
	"ladm/internal/simtel"
	sym "ladm/internal/symbolic"
	"ladm/internal/trace"
)

// LaunchPlan couples one kernel launch with its threadblock assignment.
type LaunchPlan struct {
	Launch     kir.Launch
	Assignment sched.Assignment
}

// Plan is everything the engine needs to run a workload under a policy:
// the populated address space (pages placed), per-launch threadblock
// assignments, and per-structure cache decisions.
type Plan struct {
	Policy   Policy
	Cfg      *arch.Config
	Space    *page.Space
	Table    *compiler.Table
	Workload *kir.Workload
	Launches []LaunchPlan

	// FirstTouch enables reactive mapping of untouched pages.
	FirstTouch bool
	// FaultCycles is the SM-visible stall per first-touch fault.
	FaultCycles float64

	// RemoteOnce marks allocations whose remote-origin fills bypass the
	// home L2 (the RONCE side of CRB).
	RemoteOnce map[string]bool

	// Dominant is the workload-level locality label (Table IV).
	Dominant compiler.LocalityType

	// Tapes, when non-nil, holds the workload's recorded traces, shared
	// with the other plans of a sweep that simulate it: the engine
	// replays each memory phase a plan with the same array layout
	// already generated, and publishes those it generates. It never
	// changes the results.
	Tapes *trace.Tapes

	// Tel, when non-nil, observes the run: the engine samples a
	// simulated-time utilization series and/or records trace spans into
	// it. Telemetry is a pure observer — it never changes cycle counts.
	Tel *simtel.Collector

	// Deprecated: ignored; the event core is sequential.
	Parallel int

	// Interrupt, when non-nil, aborts the simulation when the channel
	// closes (typically a context's Done): the engine returns
	// engine.ErrInterrupted instead of running to completion. It never
	// affects the results of a run it does not stop.
	Interrupt <-chan struct{}
}

// faultCostCycles is the modelled first-touch fault cost: 25 microseconds
// at the 1.4 GHz core clock (the paper cites 20-50 us).
const faultCostCycles = 35000

// Prepare analyzes the workload, allocates and places its data, and
// schedules its threadblocks according to the policy — the work the GPU
// driver and LASP runtime perform before launch.
func Prepare(w *kir.Workload, cfg *arch.Config, pol Policy) (*Plan, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	space := page.NewSpace(cfg.PageBytes, cfg.Nodes())
	for _, spec := range w.Allocs {
		space.MallocManaged(spec.ID, spec.Bytes, spec.ElemSize)
	}

	tab := compiler.Analyze(w)
	for _, e := range tab.Entries {
		if a := space.Lookup(e.MallocPC); a != nil {
			e.Addr = a.Base
			e.Pages = page.BytesToPages(a.Size, cfg.PageBytes)
		}
	}

	p := &Plan{
		Policy:     pol,
		Cfg:        cfg,
		Space:      space,
		Table:      tab,
		Workload:   w,
		RemoteOnce: make(map[string]bool),
		Dominant:   tab.DominantForWorkload(w),
	}

	kernels := make(map[string]*kir.Kernel)
	for _, l := range w.Launches {
		kernels[l.Kernel.Name] = l.Kernel
	}

	p.placeData(kernels)
	if pol.Placement == PlaceFirstTouch {
		p.FirstTouch = true
		if pol.ChargeFaults {
			p.FaultCycles = faultCostCycles
		}
	}

	for _, l := range w.Launches {
		p.Launches = append(p.Launches, LaunchPlan{
			Launch:     l,
			Assignment: p.schedule(l.Kernel),
		})
	}

	p.decideCaching()
	return p, nil
}

// nodeOrder returns the identity node ordering. Chiplets of one GPU are
// numbered consecutively, so round-robin over this order is already
// hierarchy-affine: consecutive batches land on chiplets of the same GPU
// before moving to the next.
func (p *Plan) nodeOrder() []int {
	order := make([]int, p.Cfg.Nodes())
	for i := range order {
		order[i] = i
	}
	return order
}

// placeData places every allocation's pages per the policy.
func (p *Plan) placeData(kernels map[string]*kir.Kernel) {
	order := p.nodeOrder()
	for _, alloc := range p.Space.Allocs() {
		pages := page.BytesToPages(alloc.Size, p.Cfg.PageBytes)
		if p.Cfg.Monolithic {
			p.Space.Place(alloc, page.Fixed(0))
			continue
		}
		switch p.Policy.Placement {
		case PlaceInterleave, PlaceCODA:
			// CODA's sub-page hardware interleaving is modelled as perfectly
			// page-aligned single-page interleaving.
			p.Space.Place(alloc, page.Interleave(1, order))
		case PlaceFirstTouch:
			p.Space.Place(alloc, page.Leave())
		case PlaceKernelWide:
			p.Space.Place(alloc, page.Chunks(pages, order))
		case PlaceLASP:
			p.laspPlace(alloc, pages, kernels, order)
		case PlaceManual:
			p.manualPlace(alloc, pages, order)
		default:
			panic(fmt.Sprintf("runtime: unknown placement %v", p.Policy.Placement))
		}
	}
}

// laspPlace implements LASP data placement (Section III-D1): the
// structure's dominant classification selects stride-aware interleaving,
// row-based or column-based placement, or the kernel-wide fallback.
func (p *Plan) laspPlace(alloc *page.Alloc, pages int, kernels map[string]*kir.Kernel, order []int) {
	ty, rep := p.Table.DominantForArray(alloc.ID)
	if rep == nil {
		p.Space.Place(alloc, page.Interleave(1, order))
		return
	}
	k := kernels[rep.Kernel]
	switch {
	case ty == compiler.NoLocality:
		p.placeNoLocality(alloc, pages, rep, k, order)
	case ty == compiler.RowHorizontal || ty == compiler.ColHorizontal:
		// Horizontal motion: row-based placement — the chunk of data owned
		// by one grid line (row for row-sharing, column for column-sharing)
		// stays on the node its line is bound to.
		if !p.placeByLine(alloc, rep, k) {
			p.Space.Place(alloc, page.Interleave(1, order))
		}
	case ty == compiler.RowVertical || ty == compiler.ColVertical:
		// Vertical motion: column-based placement — interleave within each
		// data row so a grid line's column strip lands with its GPU
		// (Equation 1 with stride = the data row width).
		if !p.placeColumnBased(alloc, rep, k, order) {
			p.Space.Place(alloc, page.Interleave(1, order))
		}
	default: // IntraThread, Unclassified
		p.Space.Place(alloc, page.Chunks(pages, order))
	}
}

// placeNoLocality handles Table II row 1: stride-aware interleaving, or
// line-contiguous placement for 2D loop-free kernels (stencils).
func (p *Plan) placeNoLocality(alloc *page.Alloc, pages int, rep *compiler.Entry, k *kir.Kernel, order []int) {
	var strideBytes uint64
	if k != nil && !rep.Class.Stride.IsZero() {
		env := k.BaseEnv()
		s := rep.Class.StrideElems(&env)
		if s < 0 {
			s = -s
		}
		strideBytes = uint64(s) * uint64(rep.ElemSize)
	}
	switch {
	case strideBytes > 0:
		// Stride-aware placement, generalized from Equation 1: the node of
		// a page is decided by its offset *within* one stride period, so a
		// threadblock's datablocks land on the same node at every loop
		// iteration even when the stride is not a multiple of
		// nodes x pageSize. Chunk boundaries mirror the alignment-aware
		// scheduler's contiguous batches.
		nodes := uint64(p.Cfg.Nodes())
		if strideBytes < nodes*p.Cfg.PageBytes || k == nil {
			p.Space.Place(alloc, page.Interleave(1, order))
			return
		}
		totalTBs := uint64(k.Grid.Count())
		per := (totalTBs + nodes - 1) / nodes
		pageBytes := p.Cfg.PageBytes
		sb := strideBytes
		p.Space.Place(alloc, func(pageIdx int) page.NodeID {
			off := uint64(pageIdx) * pageBytes
			b := (off % sb) * totalTBs / sb // owning threadblock
			n := int(b / per)
			if n >= int(nodes) {
				n = int(nodes) - 1
			}
			return n
		})
	case k != nil && k.Is2D():
		// Stencil-style 2D grids: contiguous data-row blocks per grid row,
		// so only the N-1 chunk boundaries generate off-node traffic.
		if !p.placeByLine(alloc, rep, k) {
			p.Space.Place(alloc, page.AlignedChunks(pages, 1, order))
		}
	default:
		p.Space.Place(alloc, page.Interleave(1, order))
	}
}

// lineCoefBytes extracts the byte distance between consecutive grid lines'
// data (the coefficient of blockIdx.y for row sharing, blockIdx.x for
// column sharing).
func lineCoefBytes(rep *compiler.Entry, k *kir.Kernel, kind sym.VarKind) (uint64, bool) {
	if k == nil {
		return 0, false
	}
	full := sym.Normalize(k.SubstitutedIndex(rep.Access))
	coef, ok := full.CoefficientOf(kind)
	if !ok || coef.IsZero() {
		return 0, false
	}
	env := k.BaseEnv()
	v := coef.Eval(&env)
	if v <= 0 {
		return 0, false
	}
	return uint64(v) * uint64(rep.ElemSize), true
}

// shareKind returns the grid-line variable and line count of the entry's
// sharing pattern.
func shareKind(rep *compiler.Entry, k *kir.Kernel) (kind sym.VarKind, lines int) {
	switch rep.Class.Type {
	case compiler.ColHorizontal, compiler.ColVertical:
		return sym.BidX, k.Grid.X
	default:
		// Row sharing — and the stencil case, which chunks by grid row.
		return sym.BidY, k.Grid.Y
	}
}

// placeByLine chunks the structure by grid line: the data owned by line i
// goes to the node the binding scheduler gives line i.
func (p *Plan) placeByLine(alloc *page.Alloc, rep *compiler.Entry, k *kir.Kernel) bool {
	kind, lines := shareKind(rep, k)
	coefBytes, ok := lineCoefBytes(rep, k, kind)
	if !ok || lines < 1 {
		return false
	}
	// Line placement is only meaningful when the grid lines actually tile
	// the structure. A tiny per-line coefficient (e.g. a transposed store
	// whose blockIdx.y step is a few elements) would pile everything onto
	// the last line's node — fall back to interleaving instead.
	if coefBytes*uint64(lines) < alloc.Size/2 {
		return false
	}
	hier := p.Policy.Hierarchical
	// For stencils (NoLocality), contiguity beats chiplet round-robin:
	// adjacent lines should sit on the same chiplet.
	if rep.Class.Type == compiler.NoLocality {
		hier = false
	}
	cfg := p.Cfg
	pageBytes := p.Cfg.PageBytes
	p.Space.Place(alloc, func(pageIdx int) page.NodeID {
		off := uint64(pageIdx) * pageBytes
		line := int(off / coefBytes)
		if line >= lines {
			line = lines - 1
		}
		return sched.BindLine(line, lines, cfg, hier)
	})
	return true
}

// placeColumnBased interleaves within each data row at Equation 1
// granularity so a column strip stays with one GPU; rows rotate across the
// GPU's chiplets (the fast ring absorbs the intra-GPU spread).
func (p *Plan) placeColumnBased(alloc *page.Alloc, rep *compiler.Entry, k *kir.Kernel, order []int) bool {
	kind, lines := shareKind(rep, k)
	coefBytes, ok := lineCoefBytes(rep, k, kind)
	if !ok || lines < 1 {
		return false
	}
	rowBytes := coefBytes * uint64(lines)
	cfg := p.Cfg
	pageBytes := cfg.PageBytes
	gpus, chiplets := cfg.GPUs, cfg.ChipletsPerGPU
	if p.Cfg.Monolithic || rowBytes < uint64(gpus)*pageBytes || rowBytes > alloc.Size {
		return false // cannot split a data row across GPUs at page grain
	}
	p.Space.Place(alloc, func(pageIdx int) page.NodeID {
		off := uint64(pageIdx) * pageBytes
		within := off % rowBytes
		gpu := int(within * uint64(gpus) / rowBytes)
		if gpu >= gpus {
			gpu = gpus - 1
		}
		chiplet := int(off/rowBytes) % chiplets
		return gpu*chiplets + chiplet
	})
	return true
}

// schedule selects and runs the threadblock scheduler for one kernel.
func (p *Plan) schedule(k *kir.Kernel) sched.Assignment {
	if p.Cfg.Monolithic {
		return sched.KernelWide{}.Assign(k, p.Cfg)
	}
	switch p.Policy.Sched {
	case SchedRR:
		return sched.Batched{Batch: 1}.Assign(k, p.Cfg)
	case SchedStaticBatch:
		b := p.Policy.StaticBatch
		if b < 1 {
			b = 8
		}
		return sched.Batched{Batch: b}.Assign(k, p.Cfg)
	case SchedKernelWide:
		return sched.KernelWide{}.Assign(k, p.Cfg)
	case SchedCODA:
		return p.codaSchedule(k)
	case SchedLASP:
		return p.laspSchedule(k)
	case SchedManual:
		return p.manualSchedule(k)
	default:
		panic(fmt.Sprintf("runtime: unknown scheduler %v", p.Policy.Sched))
	}
}

// codaSchedule sizes page-aligned batches from the largest structure's
// datablock (CODA's alignment-aware analysis).
func (p *Plan) codaSchedule(k *kir.Kernel) sched.Assignment {
	db := p.largestDatablock(k)
	batch := compiler.MinTBBatch(p.Cfg.PageBytes, db)
	return sched.Batched{
		Batch:        batch,
		Hierarchical: p.Policy.Hierarchical,
		Label:        "coda",
	}.Assign(k, p.Cfg)
}

// largestDatablock returns the datablock size of the kernel's
// largest-footprint structure (the page-alignment driver).
func (p *Plan) largestDatablock(k *kir.Kernel) uint64 {
	var best uint64 = 1
	var bestBytes uint64
	for _, e := range p.Table.ForKernel(k.Name) {
		a := p.Space.Lookup(e.MallocPC)
		if a == nil {
			continue
		}
		if a.Size > bestBytes && e.DatablockBytes > 0 {
			bestBytes = a.Size
			best = e.DatablockBytes
		}
	}
	return best
}

// laspSchedule implements LASP threadblock scheduling (Section III-D2):
// row/column binding when an RCL structure exists (largest structure
// breaks ties), alignment-aware batching for strided kernels, contiguous
// rows for 2D stencils, kernel-wide for ITL/unclassified.
func (p *Plan) laspSchedule(k *kir.Kernel) sched.Assignment {
	entries := p.Table.ForKernel(k.Name)

	// The scheduler follows the kernel's weightiest structure (the paper's
	// tie break: "favor the scheduling policy associated with the larger
	// data structure"). Rank structures by size, breaking ties toward more
	// actionable classifications (RCL > NL > ITL > unclassified).
	var lead *compiler.Entry
	var leadBytes uint64
	for _, e := range entries {
		a := p.Space.Lookup(e.MallocPC)
		if a == nil {
			continue
		}
		if lead == nil || a.Size > leadBytes ||
			(a.Size == leadBytes && e.Class.Type.Specificity() > lead.Class.Type.Specificity()) {
			lead, leadBytes = e, a.Size
		}
	}
	// Among RCL structures, the largest one dictates the direction.
	var rclEntry *compiler.Entry
	var rclBytes uint64
	for _, e := range entries {
		a := p.Space.Lookup(e.MallocPC)
		if a == nil || !e.Class.Type.IsRCL() {
			continue
		}
		if a.Size > rclBytes {
			rclBytes, rclEntry = a.Size, e
		}
	}
	nlEntry := lead

	switch {
	case lead == nil:
		return sched.KernelWide{}.Assign(k, p.Cfg)

	case lead.Class.Type.IsRCL() || (rclEntry != nil && rclBytes >= leadBytes):
		if rclEntry.Class.Type.RowBinding() {
			return sched.RowBinding{Hierarchical: p.Policy.Hierarchical}.Assign(k, p.Cfg)
		}
		return sched.ColBinding{Hierarchical: p.Policy.Hierarchical}.Assign(k, p.Cfg)

	case lead.Class.Type == compiler.NoLocality:
		env := k.BaseEnv()
		s := nlEntry.Class.StrideElems(&env)
		if s < 0 {
			s = -s
		}
		strideBytes := uint64(s) * uint64(nlEntry.ElemSize)
		if strideBytes == 0 && k.Is2D() {
			// Stencil: contiguous rows per node preserve adjacency.
			return sched.RowBinding{}.Assign(k, p.Cfg)
		}
		batch := compiler.MinTBBatch(p.Cfg.PageBytes, nlEntry.DatablockBytes)
		if strideBytes > 0 {
			// Strided kernels: contiguous threadblock chunks, mirroring the
			// modulo-stride placement (the paper's "n x MinTBBatch with n
			// at its maximum" case).
			nodes := p.Cfg.Nodes()
			if b := (k.Grid.Count() + nodes - 1) / nodes; b > batch {
				batch = b
			}
		}
		return sched.Batched{
			Batch:        batch,
			Hierarchical: p.Policy.Hierarchical,
			Label:        "align-aware",
		}.Assign(k, p.Cfg)

	default: // ITL / unclassified
		return sched.KernelWide{}.Assign(k, p.Cfg)
	}
}

// decideCaching fills RemoteOnce per the policy's cache kind, with CRB
// resolved by ResolveCache.
func (p *Plan) decideCaching() {
	if ResolveCache(p.Policy.Cache, p.Dominant) == CacheRONCE {
		for _, a := range p.Space.Allocs() {
			p.RemoteOnce[a.ID] = true
		}
	}
}

// SchedulerName returns the scheduler used for launch i (diagnostics and
// the Table IV "Scheduler Decision" column).
func (p *Plan) SchedulerName(i int) string {
	return p.Launches[i].Assignment.Scheduler
}
