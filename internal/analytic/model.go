package analytic

import (
	"fmt"
	"math"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/core"
	"ladm/internal/kir"
	"ladm/internal/mem/page"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
)

// Sampling budgets. The model is exact over every threadblock and
// iteration it visits; when a launch exceeds a budget it visits a
// deterministic low-discrepancy subset (golden-ratio stepping, co-prime
// with the total so the samples never alias a placement period) and
// scales the counts by the skipped weight. The budgets keep a prediction
// in the tens of microseconds at any scale.
const (
	maxTBSamples   = 192
	maxIterSamples = 24
	maxPageProbes  = 8

	// reqHeaderBytes mirrors the engine's network packet overhead.
	reqHeaderBytes = 16
)

// ArrayTraffic is the per-kernel, per-array slice of a prediction: where
// one data structure's sectors were served from.
type ArrayTraffic struct {
	Kernel string `json:"kernel"`
	Array  string `json:"array"`
	// LocalSectors were served by the requester's own node;
	// RemoteSectors crossed to another node's L2.
	LocalSectors  float64 `json:"local_sectors"`
	RemoteSectors float64 `json:"remote_sectors"`
	// DRAMBytes is the array's predicted DRAM traffic (fills + writeback).
	DRAMBytes float64 `json:"dram_bytes"`
}

// Prediction is the detailed output of the closed-form model: the
// stats.Run the tier serves, plus the per-array and per-node breakdowns
// the event engine never reports.
type Prediction struct {
	Run *stats.Run
	// PerArray breaks the traffic down by (kernel, array).
	PerArray []ArrayTraffic
	// PerNodeDRAMBytes is the predicted DRAM traffic at each node's HBM.
	PerNodeDRAMBytes []float64
}

// Predict runs the closed-form model and returns the predicted record,
// tagged Tier=analytic/Confidence=high. Callers gate it behind AssessJob
// (or Runner, which does); on a job outside the model's domain it
// returns an error rather than a bad prediction.
func Predict(job core.Job) (*stats.Run, error) {
	p, err := PredictDetailed(job)
	if err != nil {
		return nil, err
	}
	return p.Run, nil
}

// PredictDetailed is Predict with the per-array and per-node breakdowns.
func PredictDetailed(job core.Job) (*Prediction, error) {
	cfg := job.Arch
	// The real planning pipeline — analysis, LASP placement, scheduling —
	// is reused wholesale: the model predicts the traffic of the *actual*
	// page placement and threadblock assignment, not of a re-derivation.
	plan, err := rt.Prepare(job.Workload, &cfg, job.Policy)
	if err != nil {
		return nil, fmt.Errorf("analytic: prepare %s/%s: %w", job.Workload.Name, job.Policy.Name, err)
	}
	m := newModel(&cfg, plan.Space)
	for i := range plan.Launches {
		if err := m.launch(&plan.Launches[i]); err != nil {
			return nil, err
		}
	}
	return m.finish(job), nil
}

// model accumulates predicted traffic. Counts are float64: sampled
// threadblocks carry fractional weight.
type model struct {
	cfg   *arch.Config
	space *page.Space

	localBy []float64 // per node: requester SM<->L2 bytes (L1 miss traffic)
	ringBy  []float64 // per GPU: inter-chiplet ring bytes (incl. switch-port hops)
	linkEg  []float64 // per GPU: switch uplink bytes
	linkIn  []float64 // per GPU: switch downlink bytes
	dramBy  []float64 // per node: HBM bytes

	ll, lr, rl float64 // L2 sectors by traffic category
	l2Miss     float64 // requester-side L2 sector misses
	l1Sectors  float64
	interChip  float64
	interGPU   float64
	warpInstrs float64
	computeCyc float64 // per-SM compute lower bound, summed over launches

	perArray map[[2]string]*ArrayTraffic
	order    [][2]string
}

func newModel(cfg *arch.Config, space *page.Space) *model {
	return &model{
		cfg:      cfg,
		space:    space,
		localBy:  make([]float64, cfg.Nodes()),
		ringBy:   make([]float64, cfg.GPUs),
		linkEg:   make([]float64, cfg.GPUs),
		linkIn:   make([]float64, cfg.GPUs),
		dramBy:   make([]float64, cfg.Nodes()),
		perArray: map[[2]string]*ArrayTraffic{},
	}
}

func (m *model) array(kernel, array string) *ArrayTraffic {
	k := [2]string{kernel, array}
	if at, ok := m.perArray[k]; ok {
		return at
	}
	at := &ArrayTraffic{Kernel: kernel, Array: array}
	m.perArray[k] = at
	m.order = append(m.order, k)
	return at
}

// launch folds one launch plan's traffic into the model.
func (m *model) launch(lp *rt.LaunchPlan) error {
	k := lp.Launch.Kernel
	times := float64(lp.Launch.EffTimes())
	nodeOf := lp.Assignment.NodeOf()
	totalTBs := k.Grid.Count()
	iters := k.EffIters()

	type site struct {
		acc    *kir.Access
		aff    compiler.AffineAccess
		al     *page.Alloc
		reps   int // iteration count of the access's phase
		secPer float64
		linPer float64
	}
	sites := make([]site, 0, len(k.Accesses))
	loopSites := 0
	waveIterBytes := 0.0 // bytes a resident wave streams per iteration
	nodeL2Bytes := 0.0   // bytes the launch streams through one node's L2
	residentPerNode := m.cfg.SMs() / m.cfg.Nodes() * m.cfg.ResidentTBs(k.WarpsPerTB(m.cfg.WarpSize))
	if residentPerNode < 1 {
		residentPerNode = 1
	}
	for i := range k.Accesses {
		acc := &k.Accesses[i]
		aff, ok := compiler.AffineForAccess(k, i)
		if !ok {
			return fmt.Errorf("analytic: kernel %s access %s[%d] has no affine form", k.Name, acc.Array, i)
		}
		al := m.space.Lookup(acc.Array)
		if al == nil {
			return fmt.Errorf("analytic: kernel %s array %s not allocated", k.Name, acc.Array)
		}
		reps := 1
		if acc.Phase == kir.InLoop {
			loopSites++
			if aff.CoefM != 0 {
				reps = iters
			}
			// Loop-invariant in-loop accesses re-touch the same bytes
			// every iteration; after the first touch they hit in L1, so
			// the traffic model counts them once.
		}
		// Per-(tb, m) sector/line counts depend only on the block's touch
		// lattice, not on tb or m — compute once.
		secPer, linPer := latticeSectors(&aff, k.Block, m.cfg.SectorBytes, m.cfg.LineBytes)
		waveIterBytes += secPer * float64(m.cfg.SectorBytes) * float64(residentPerNode)
		nodeL2Bytes += times * float64(totalTBs) * float64(reps) * secPer *
			float64(m.cfg.SectorBytes) / float64(m.cfg.Nodes())
		sites = append(sites, site{acc: acc, aff: aff, al: al, reps: reps, secPer: secPer, linPer: linPer})
	}

	// Instruction and compute accounting is closed-form (Assess rejects
	// per-threadblock trip counts).
	warps := float64(k.WarpsPerTB(m.cfg.WarpSize))
	preSites := float64(len(k.Accesses) - loopSites)
	m.warpInstrs += times * float64(totalTBs) * warps *
		(float64(iters)*float64(loopSites+k.ALUPerIter) + preSites)
	ccpi := float64(k.ComputeCyclesPerIter)
	if ccpi <= 0 {
		ccpi = float64(k.ALUPerIter)
	}
	resident := float64(m.cfg.SMs() * m.cfg.ResidentTBs(k.WarpsPerTB(m.cfg.WarpSize)))
	if resident < 1 {
		resident = 1
	}
	m.computeCyc += times * float64(totalTBs) * float64(iters) * ccpi / resident

	// Threadblock sampling.
	tbSamples, tbStep := sampleSteps(totalTBs, maxTBSamples)
	tbWeight := times * float64(totalTBs) / float64(tbSamples)
	gridX := int64(k.Grid.X)

	for _, s := range sites {
		at := m.array(k.Name, s.acc.Array)
		isStore := s.acc.Mode == kir.Store
		mSamples, mStep := sampleSteps(s.reps, maxIterSamples)
		mWeight := float64(s.reps) / float64(mSamples)
		w := tbWeight * mWeight
		reuse := m.reuseFactor(&s.aff, k, isStore, s.secPer, s.reps, times,
			waveIterBytes, nodeL2Bytes, residentPerNode)

		tb := 0
		for j := 0; j < tbSamples; j++ {
			node := int(nodeOf[tb])
			bx, by := int64(tb)%gridX, int64(tb)/gridX
			it := 0
			for q := 0; q < mSamples; q++ {
				lo, hi := s.aff.Span(bx, by, int64(it))
				m.accountSpan(node, s.al, lo, hi, s.aff.ElemBytes, s.secPer, s.linPer, w, isStore, reuse, at)
				it = (it + mStep) % s.reps
			}
			tb = (tb + tbStep) % totalTBs
		}

		// DRAM traffic: compulsory footprint with a capacity cliff (see
		// dramFootprint).
		m.dramFootprint(&s.aff, k, s.al, times, isStore, at)
	}
	return nil
}

// reuseFactor models the requester-side L2 caching of remote loads: the
// fraction of an access's remote lookups that miss and actually fetch.
// The requester L2 is a real LRU cache, so absorption happens at two
// horizons:
//
//   - Run-long retention. A hot shared footprint that fits the slice and
//     is re-touched faster than the stream can cycle a set's ways stays
//     MRU for the whole launch; each node fetches its union once:
//     fetches = nodes x uniqueRunSectors.
//   - Wave absorption. Otherwise, blocks co-resident on a node touch a
//     shared sector close together in time, so the first fetch serves
//     the wave: fetches = nodes x waves x uniqueWaveSectors. Re-touches
//     across waves find the sector evicted by the streaming in between.
//
// The factor is fetches/touches under the cheapest available horizon,
// clamped to 1. Overflow cliffs gate each horizon: a union larger than
// the slice cannot be retained, and a wave whose per-iteration stream
// overflows the slice evicts sectors between even adjacent touches.
func (m *model) reuseFactor(aff *compiler.AffineAccess, k *kir.Kernel,
	isStore bool, secPer float64, reps int, times, waveIterBytes, nodeL2Bytes float64, resident int) float64 {
	if isStore {
		return 1
	}
	nodes := float64(m.cfg.Nodes())
	totalTBs := float64(k.Grid.Count()) * times
	touches := totalTBs * float64(reps) * secPer
	if touches <= 0 {
		return 1
	}
	l2 := float64(m.cfg.L2KBPerNode) * 1024
	if l2 <= 0 {
		return 1
	}
	e := aff.ElemBytes
	sb := int64(m.cfg.SectorBytes)
	spanB := (aff.TMax-aff.TMin)*e + e + absI(aff.CoefM)*e*int64(reps-1)
	// union estimates the unique sectors a contiguous cluster of n blocks
	// touches over the whole loop: the per-block span widened by the block
	// stride per extra member (the scheduler clusters grid neighbours), a
	// zero stride meaning full sharing. Dense bound, capped by the
	// cluster's touch count so scattered lattices stay scattered.
	union := func(n int) float64 {
		u := spanB
		switch {
		case aff.CoefBx != 0:
			u += absI(aff.CoefBx) * e * int64(n-1)
		case aff.CoefBy != 0:
			u += absI(aff.CoefBy) * e * int64(n/maxInt(k.Grid.X, 1))
		}
		sec := float64((u + sb - 1) / sb)
		if cap := float64(n) * float64(reps) * secPer; sec > cap {
			sec = cap
		}
		return sec
	}

	fetched := math.Inf(1)
	touchesNode := touches / nodes
	tbsNode := int(math.Ceil(totalTBs / nodes))
	if uniqueRun := union(tbsNode); uniqueRun*float64(sb) <= l2 {
		// Bytes streamed through the node's L2 between re-touches of one
		// hot sector; under a streamed volume per set smaller than the
		// ways, LRU keeps the hot line resident.
		interval := nodeL2Bytes * uniqueRun / touchesNode
		if interval <= l2 {
			fetched = nodes * uniqueRun
		}
	}
	uniqueWave := union(resident)
	if uniqueWave*float64(sb) <= l2 && waveIterBytes <= l2 {
		waves := math.Ceil(totalTBs / (nodes * float64(resident)))
		if wf := nodes * waves * uniqueWave; wf < fetched {
			fetched = wf
		}
	}
	f := fetched / touches
	if f > 1 || math.IsInf(f, 1) {
		f = 1
	}
	return f
}

// accountSpan books one threadblock-iteration touch of [lo,hi] elements,
// distributing its sectors over the page homes the span covers — the
// same request path the engine walks, minus the event loop: every L1
// miss crosses the requester's fabric; node-local sectors stay in the
// local L2 (LOCAL-LOCAL); remote sectors pay the requester-side lookup
// (LOCAL-REMOTE, loads only) and, for the fraction the requester's L2
// does not absorb (reuse), the home-side service (REMOTE-LOCAL) and the
// request/response packets on the ring or switch.
func (m *model) accountSpan(node int, al *page.Alloc, lo, hi, elemBytes int64,
	sectors, lines, weight float64, isStore bool, reuse float64, at *ArrayTraffic) {
	if hi < 0 || lo >= al.Elems() {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= al.Elems() {
		hi = al.Elems() - 1
	}
	loB := al.ElemAddr(lo)
	hiB := al.ElemAddr(hi) + uint64(elemBytes) - 1
	pageBytes := m.space.PageBytes
	firstPage := loB / pageBytes
	lastPage := hiB / pageBytes
	pages := int(lastPage - firstPage + 1)

	book := func(home int, frac float64) {
		sec := sectors * frac * weight
		lin := lines * frac * weight
		secBytes := sec * float64(m.cfg.SectorBytes)
		if home < 0 {
			home = node
		}
		// Every L1 miss crosses the requester's SM<->L2 fabric.
		m.localBy[node] += secBytes
		if !isStore {
			m.l1Sectors += sec
		}
		if home == node {
			m.ll += sec
			at.LocalSectors += sec
			return
		}
		if isStore {
			at.RemoteSectors += sec
			m.rl += sec
			m.l2Miss += sec
			// Store request carries its payload to the home L2.
			m.bookNet(node, home, lin*reqHeaderBytes+secBytes)
			return
		}
		// The requester-side lookup happens per touch; only the non-reused
		// fraction travels to the home node.
		m.lr += sec
		at.RemoteSectors += sec * reuse
		m.rl += sec * reuse
		m.l2Miss += sec * reuse
		m.bookNet(node, home, lin*reqHeaderBytes*reuse)
		m.bookNet(home, node, (secBytes+lin*reqHeaderBytes)*reuse)
	}

	if pages <= maxPageProbes {
		span := float64(hiB - loB + 1)
		for p := firstPage; p <= lastPage; p++ {
			pLo, pHi := p*pageBytes, (p+1)*pageBytes-1
			if pLo < loB {
				pLo = loB
			}
			if pHi > hiB {
				pHi = hiB
			}
			book(m.space.Home(pLo), float64(pHi-pLo+1)/span)
		}
		return
	}
	// Wide spans: probe a low-discrepancy subset of pages, each standing
	// for an equal share (the partial first/last pages are noise at this
	// width).
	probes, step := sampleSteps(pages, maxPageProbes)
	frac := 1 / float64(probes)
	p := 0
	for j := 0; j < probes; j++ {
		book(m.space.Home((firstPage+uint64(p))*pageBytes), frac)
		p = (p + step) % pages
	}
}

// bookNet books a remote transfer's bytes the way the interconnect does:
// once, under the level it crosses. Switch transfers additionally ride
// the source and destination rings to reach the port — that costs ring
// cycles but is not inter-chiplet traffic.
func (m *model) bookNet(src, dst int, bytes float64) {
	sg, dg := m.cfg.GPUOfNode(src), m.cfg.GPUOfNode(dst)
	if sg == dg {
		m.interChip += bytes
		m.ringBy[sg] += bytes
		return
	}
	m.interGPU += bytes
	m.linkEg[sg] += bytes
	m.linkIn[dg] += bytes
	if m.cfg.ChipletsPerGPU > 1 {
		m.ringBy[sg] += bytes
		m.ringBy[dg] += bytes
	}
}

// dramFootprint books an access's DRAM traffic: the compulsory fill of
// its grid-wide footprint, distributed over the nodes that home the
// allocation's pages. When a node's share of the footprint exceeds its
// L2 slice, the overflow re-fills on reuse — the standard working-set
// cliff, applied per node so placement locality earns its keep. Stores
// write their footprint back at flush.
func (m *model) dramFootprint(aff *compiler.AffineAccess, k *kir.Kernel,
	al *page.Alloc, times float64, isStore bool, at *ArrayTraffic) {
	lo, hi := aff.GridSpan(k.Grid.X, k.Grid.Y, k.EffIters())
	if hi < 0 || lo >= al.Elems() {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= al.Elems() {
		hi = al.Elems() - 1
	}
	sector := int64(m.cfg.SectorBytes)
	spanBytes := (hi-lo+1)*aff.ElemBytes + sector - 1
	spanBytes -= spanBytes % sector
	footprint := float64(spanBytes)

	nb := m.space.NodeBytes(al)
	var total float64
	for _, b := range nb {
		total += float64(b)
	}
	l2Bytes := float64(m.cfg.L2KBPerNode) * 1024
	for nodeID, b := range nb {
		if total == 0 {
			break
		}
		share := footprint * float64(b) / total
		fills := share
		if !isStore && share > l2Bytes && l2Bytes > 0 && times > 1 {
			// Repeated launches re-read a footprint the slice cannot
			// retain (LRU keeps nothing of a cyclic overflow).
			fills = share * times
		}
		m.dramBy[nodeID] += fills
		at.DRAMBytes += fills
	}
}

// finish assembles the stats.Run from the accumulated counts.
func (m *model) finish(job core.Job) *Prediction {
	cfg := m.cfg
	run := &stats.Run{
		Workload:   job.Workload.Name,
		Policy:     job.Policy.Name,
		Arch:       cfg.Name,
		Tier:       TierAnalytic,
		Confidence: ConfidenceHigh,
		TBs:        job.Workload.TotalTBs(),
		WarpInstrs: uint64(m.warpInstrs),
	}
	run.L1Sectors = uint64(m.l1Sectors)
	run.L2[stats.LocalLocal].Sectors = uint64(m.ll)
	run.L2[stats.LocalRemote].Sectors = uint64(m.lr)
	run.L2[stats.RemoteLocal].Sectors = uint64(m.rl)

	var local, dram float64
	for _, b := range m.localBy {
		local += b
	}
	for _, b := range m.dramBy {
		dram += b
	}
	run.LocalBytes = uint64(local)
	run.InterChipletBytes = uint64(m.interChip)
	run.InterGPUBytes = uint64(m.interGPU)
	run.DRAMBytes = uint64(dram)
	run.L2SectorMisses = uint64(m.l2Miss + dram/float64(cfg.SectorBytes))

	// First-order runtime: the busiest single resource of each hierarchy
	// level bounds the run; the roofline is their maximum.
	bpc := cfg.BytesPerCycle
	run.MaxIntraBusy = maxOf(m.localBy) / bpc(cfg.IntraChipletGBs)
	run.MaxRingBusy = maxOf(m.ringBy) / bpc(cfg.InterChipletGBs)
	run.MaxLinkBusy = math.Max(maxOf(m.linkEg), maxOf(m.linkIn)) / bpc(cfg.InterGPUGBs)
	run.MaxDRAMBusy = maxOf(m.dramBy) / bpc(cfg.DRAMPerNodeGBs)
	run.MaxIssueBusy = m.warpInstrs / float64(cfg.SMs()*cfg.IssuePerCycle)
	run.Cycles = math.Max(run.MaxIntraBusy,
		math.Max(run.MaxRingBusy,
			math.Max(run.MaxLinkBusy,
				math.Max(run.MaxDRAMBusy,
					math.Max(run.MaxIssueBusy, m.computeCyc)))))
	// Pipeline fill: one memory round trip that cannot overlap anything.
	run.Cycles += float64(cfg.L1Lat + cfg.L2Lat + cfg.DRAMLat)

	p := &Prediction{Run: run, PerNodeDRAMBytes: m.dramBy}
	for _, key := range m.order {
		p.PerArray = append(p.PerArray, *m.perArray[key])
	}
	return p
}

// latticeSectors estimates the sectors and lines one threadblock touches
// in one visit of an access: the block's threads form a lattice with
// per-lane stride ThreadStride and row strides CoefTy/CoefTz. Dense rows
// cost their span in sectors; scattered rows cost a sector per thread;
// disjoint rows add up, overlapping rows merge into one dense span.
func latticeSectors(aff *compiler.AffineAccess, block kir.Dim3, sectorBytes, lineBytes int) (sectors, lines float64) {
	e := aff.ElemBytes
	rowSpan := absI(aff.ThreadStride)*int64(block.X-1)*e + e
	sec, lin := compiler.PredictSectors(rowSpan, aff.ThreadStride*e, block.X, sectorBytes, lineBytes)
	sec, lin, rowSpan = foldRows(sec, lin, rowSpan, aff.CoefTy*e, block.Y, aff.ThreadStride*e, block.X*maxInt(block.Y, 1), sectorBytes, lineBytes)
	sec, lin, _ = foldRows(sec, lin, rowSpan, aff.CoefTz*e, block.Z, aff.ThreadStride*e, block.Count(), sectorBytes, lineBytes)
	return float64(sec), float64(lin)
}

// foldRows folds `count` rows spaced `stride` bytes apart into the
// row-level estimate (rowSec/rowLin over rowSpan bytes each).
func foldRows(rowSec, rowLin, rowSpan, stride int64, count int, laneStride int64, threads, sectorBytes, lineBytes int) (sec, lin, span int64) {
	if count <= 1 {
		return rowSec, rowLin, rowSpan
	}
	s := absI(stride)
	if s <= rowSpan {
		// Rows overlap or tile contiguously: one dense region.
		span = s*int64(count-1) + rowSpan
		sec, lin = compiler.PredictSectors(span, laneStride, threads, sectorBytes, lineBytes)
		return sec, lin, span
	}
	// Disjoint rows: counts add, and the enclosing span stretches.
	return rowSec * int64(count), rowLin * int64(count), s*int64(count-1) + rowSpan
}

// sampleSteps picks a sample count and a golden-ratio step co-prime with
// total, so repeated stepping visits distinct, well-spread indices.
func sampleSteps(total, budget int) (samples, step int) {
	if total <= budget {
		return maxInt(total, 1), 1
	}
	step = int(float64(total) * 0.6180339887498949)
	if step < 1 {
		step = 1
	}
	for gcd(step, total) != 1 {
		step++
	}
	return budget, step
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func absI(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
