// Package engine is the timing simulator: an event-driven model of the
// hierarchical NUMA-GPU at warp-transaction granularity.
//
// Each threadblock executes as a chain of events — one per outer-loop
// iteration — whose memory phase issues its coalesced transactions through
// the SM's issue port (bounded by MSHR windows), the sectored L1, the
// requesting node's L2 slice, the hierarchical interconnect, the home
// node's L2 slice, and HBM, all modelled as latency plus bandwidth-queued
// resources. SMs run up to their occupancy limit of threadblocks drawn
// from their node's scheduler queue, so latency hiding, bandwidth
// saturation and NUMA queueing emerge rather than being asserted.
//
// This is the substitution for GPGPU-Sim 4.0 + Accel-Sim described in
// DESIGN.md: instruction pipelines are abstracted into per-iteration
// compute delays, but the memory system — the thing the paper's results
// turn on — is modelled end to end.
//
// The event core is allocation-free in steady state: events live in the
// event queue's node arena, and the per-transaction (txState), per-phase
// (phaseRun) and per-threadblock (tbExec) state is recycled through
// engine-owned free lists. The engine runs on a single goroutine, so the
// free lists are plain slices — no sync.Pool, no locks. Debug and
// telemetry hooks opt back into allocating closure wrappers; see DESIGN.md
// "Allocation-free event core".
package engine

import (
	"errors"
	"fmt"

	"ladm/internal/arch"
	"ladm/internal/interconnect"
	"ladm/internal/kir"
	"ladm/internal/mem/cache"
	"ladm/internal/mem/dram"
	"ladm/internal/mem/page"
	"ladm/internal/queueing"
	"ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/trace"
)

// Engine simulates one prepared workload on one machine.
type Engine struct {
	cfg  *arch.Config
	plan *runtime.Plan

	net     *interconnect.Network
	l1      []*cache.Cache       // per SM
	l2      []*cache.Cache       // per node
	l2srv   []*queueing.Resource // per node: L2 bank service bandwidth
	hbm     []*dram.HBM          // per node
	smIssue []*queueing.Resource // per SM: LSU issue (transactions/cycle)

	// Oversubscription: device residency per node and host links per GPU.
	residency *page.Residency
	hostLink  []*queueing.Resource

	sched scheduler
	run   *stats.Run

	// Free lists recycling the event core's per-transaction, per-phase
	// and per-threadblock state. Single-goroutine, so plain slices.
	txFree []*txState
	prFree []*phaseRun
	tbFree []*tbExec

	// Objects carved from slabs so far, per free list. Once a run
	// drains, every carved object is back on its list; the tests check
	// these books after each run.
	txCarved, prCarved, tbCarved int

	// Per-node TB queue storage, reused across kernel launches and
	// EffTimes() repetitions instead of reallocating every launch.
	queues    [][]int32
	queueBack [][]int32

	// bufHint is the high-water transaction-buffer capacity, used to
	// presize fresh executors' buffers so they skip the growth reallocs.
	bufHint int

	// stealTBs mirrors Policy.StealTBs: an SM whose node queue drained
	// may pull TBs from the deepest other queue (see takeTB).
	stealTBs bool

	// Sampled occupancy counters, maintained with pure integer ops on the
	// hot path so they are timing-neutral and allocation-free whether or
	// not telemetry reads them. mshr is per-SM in-flight transactions;
	// the tel* slices are per-node TB scheduler state.
	mshr       []int32
	telRunning []int32 // TBs resident on the node's SMs right now
	telRetired []int64 // TBs retired on the node, cumulative
	telSteals  []int64 // TBs the node's SMs stole, cumulative

	// Current launch's batch-progress snapshot (LASP batch telemetry).
	curBatch   int
	curTotal   int
	curRetired int

	// tel observes the run (nil: telemetry disabled; every hook is
	// nil-safe and the engine's timing is identical either way).
	tel *simtel.Collector
}

// New builds an engine for a prepared plan.
func New(plan *runtime.Plan) *Engine {
	cfg := plan.Cfg
	e := &Engine{
		cfg:  cfg,
		plan: plan,
		net:  interconnect.New(cfg),
		run: &stats.Run{
			Workload: plan.Workload.Name,
			Policy:   plan.Policy.Name,
			Arch:     cfg.Name,
		},
	}
	for sm := 0; sm < cfg.SMs(); sm++ {
		e.l1 = append(e.l1, cache.New(cache.Config{
			Sets:        cfg.L1Sets(),
			Assoc:       cfg.L1Assoc,
			LineBytes:   cfg.LineBytes,
			SectorBytes: cfg.SectorBytes,
		}))
		e.smIssue = append(e.smIssue, queueing.NewResource(
			fmt.Sprintf("sm%d.issue", sm), float64(cfg.IssuePerCycle)))
	}
	// L2 bank service: each bank moves one sector per cycle.
	l2Rate := float64(cfg.L2Banks * cfg.SectorBytes)
	for node := 0; node < cfg.Nodes(); node++ {
		e.l2 = append(e.l2, cache.New(cache.Config{
			Sets:        cfg.L2SetsPerNode(),
			Assoc:       cfg.L2Assoc,
			LineBytes:   cfg.LineBytes,
			SectorBytes: cfg.SectorBytes,
		}))
		e.l2srv = append(e.l2srv, queueing.NewResource(
			fmt.Sprintf("l2srv.n%d", node), l2Rate))
		hcfg := dram.DefaultConfig(
			fmt.Sprintf("hbm.n%d", node), cfg.BytesPerCycle(cfg.DRAMPerNodeGBs))
		if cfg.DRAMChannels > 0 {
			hcfg.Channels = cfg.DRAMChannels
		}
		if cfg.DRAMLat > 0 {
			hcfg.AccessLat = cfg.DRAMLat
		}
		e.hbm = append(e.hbm, dram.New(hcfg))
	}
	capacityPages := 0
	if cfg.MemCapacityPerNodeKB > 0 {
		capacityPages = int(uint64(cfg.MemCapacityPerNodeKB) << 10 / cfg.PageBytes)
		if capacityPages < 1 {
			capacityPages = 1
		}
	}
	e.residency = page.NewResidency(cfg.Nodes(), capacityPages)
	for gpu := 0; gpu < cfg.GPUs; gpu++ {
		e.hostLink = append(e.hostLink, queueing.NewResource(
			fmt.Sprintf("host.g%d", gpu), cfg.BytesPerCycle(cfg.HostLinkGBs)))
	}
	e.stealTBs = plan.Policy.StealTBs
	e.mshr = make([]int32, cfg.SMs())
	e.telRunning = make([]int32, cfg.Nodes())
	e.telRetired = make([]int64, cfg.Nodes())
	e.telSteals = make([]int64, cfg.Nodes())
	e.tel = plan.Tel
	e.sched.interrupt = plan.Interrupt
	if e.tel.Sampling() {
		e.sched.startSampling(e.tel.SampleEvery(), e.telSample)
	}
	e.tel.SetTopology(cfg.Nodes(), cfg.SMsPerChiplet)
	return e
}

// Free-list refills come in slabs: the pools' warm-up used to be the
// simulator's dominant allocation count (one heap object per peak
// in-flight transaction — 160k allocs/op on random-loc, misattributed for
// a while to the symbolic env handling until a profile pinned it on
// acquireTx). A slab turns N warm-up allocations into one without
// changing the free lists' steady-state behavior: released objects still
// recycle individually.
const (
	txSlabSize = 256
	prSlabSize = 64
	tbSlabSize = 32
)

// acquireTx pops a recycled transaction state (or carves a fresh slab).
func (e *Engine) acquireTx() *txState {
	if n := len(e.txFree); n > 0 {
		st := e.txFree[n-1]
		e.txFree = e.txFree[:n-1]
		return st
	}
	slab := make([]txState, txSlabSize)
	e.txCarved += txSlabSize
	for i := range slab[1:] {
		e.txFree = append(e.txFree, &slab[1+i])
	}
	return &slab[0]
}

// releaseTx returns a retired transaction state to the free list. Safe
// because the engine is single-goroutine and every reference to st is
// dropped at its finish.
func (e *Engine) releaseTx(st *txState) {
	*st = txState{}
	e.txFree = append(e.txFree, st)
}

// acquirePR pops a recycled phase state (or carves a fresh slab).
func (e *Engine) acquirePR() *phaseRun {
	if n := len(e.prFree); n > 0 {
		p := e.prFree[n-1]
		e.prFree = e.prFree[:n-1]
		return p
	}
	slab := make([]phaseRun, prSlabSize)
	e.prCarved += prSlabSize
	for i := range slab[1:] {
		e.prFree = append(e.prFree, &slab[1+i])
	}
	return &slab[0]
}

// releasePR recycles a phase once it has finished AND its last in-flight
// transaction (background stores included) has retired — before that,
// outstanding txStates still point at it.
func (e *Engine) releasePR(p *phaseRun) {
	*p = phaseRun{}
	e.prFree = append(e.prFree, p)
}

// acquireTB pops a recycled threadblock executor; its transaction buffer
// rides along, so steady-state phases coalesce into warm backing arrays.
// Fresh executors (slab-carved) get their buffer presized to the largest
// phase seen so far, so first-use phases extend an adequate array instead
// of re-growing from nil (the growth appends in trace.merge were the
// second-largest allocation source after the free-list warm-up).
func (e *Engine) acquireTB() *tbExec {
	if n := len(e.tbFree); n > 0 {
		x := e.tbFree[n-1]
		e.tbFree = e.tbFree[:n-1]
		if cap(x.buf) == 0 && e.bufHint > 0 {
			x.buf = make([]trace.Transaction, 0, e.bufHint)
		}
		return x
	}
	slab := make([]tbExec, tbSlabSize)
	e.tbCarved += tbSlabSize
	for i := range slab[1:] {
		e.tbFree = append(e.tbFree, &slab[1+i])
	}
	x := &slab[0]
	if e.bufHint > 0 {
		x.buf = make([]trace.Transaction, 0, e.bufHint)
	}
	return x
}

// releaseTB recycles an executor whose node queue has drained, keeping
// its buffer. Outstanding stores from the final phase reference their
// phaseRun, not x, so clearing x here is safe.
func (e *Engine) releaseTB(x *tbExec) {
	if c := cap(x.buf); c > e.bufHint {
		e.bufHint = c
	}
	buf := x.buf[:0]
	*x = tbExec{buf: buf}
	e.tbFree = append(e.tbFree, x)
}

// loadQueues copies the assignment's per-node TB queues into engine-owned
// storage and returns the working queues plus the total TB count. Both the
// outer header slice and each node's backing array are reused across
// launches and EffTimes() repetitions: resident tbExecs pull their next TB
// from e.queues via takeTB, and every launch drains fully before the next
// begins, so the arrays are never live across a reload.
func (e *Engine) loadQueues(src [][]int32) ([][]int32, int) {
	if len(src) > len(e.queueBack) {
		e.queueBack = make([][]int32, len(src))
		e.queues = make([][]int32, len(src))
	}
	e.queues = e.queues[:len(src)]
	total := 0
	for i, q := range src {
		buf := append(e.queueBack[i][:0], q...)
		e.queueBack[i] = buf
		e.queues[i] = buf
		total += len(q)
	}
	return e.queues, total
}

// takeTB pops the next threadblock for an SM of node. The node's own
// queue wins; under Policy.StealTBs a drained node steals the head of
// the deepest other queue (ties to the lowest index) instead of idling.
// Stealing trades placement locality for load balance, so it is opt-in
// and counted; with it off, event order is untouched by this path.
func (e *Engine) takeTB(node int) (int32, bool) {
	if q := e.queues[node]; len(q) > 0 {
		e.queues[node] = q[1:]
		return q[0], true
	}
	if !e.stealTBs {
		return 0, false
	}
	victim, depth := -1, 0
	for v := range e.queues {
		if l := len(e.queues[v]); l > depth {
			victim, depth = v, l
		}
	}
	if victim < 0 {
		return 0, false
	}
	tb := e.queues[victim][0]
	e.queues[victim] = e.queues[victim][1:]
	e.telSteals[node]++
	return tb, true
}

// telSample snapshots every resource's cumulative counters at a sample
// boundary. Strictly read-only: it books no bandwidth and schedules no
// events, so sampling cannot perturb the simulation.
func (e *Engine) telSample(t float64) {
	cfg := e.cfg
	cum := simtel.Cumulative{
		Cycle: t,
		Nodes: make([]simtel.NodeCum, cfg.Nodes()),
		GPUs:  make([]simtel.GPUCum, cfg.GPUs),
	}
	for n := range cum.Nodes {
		nc := &cum.Nodes[n]
		nc.IntraBusy = e.net.IntraBusy(n)
		nc.L2SrvBusy = e.l2srv[n].BusyCycles()
		nc.L2SrvBacklog = e.l2srv[n].Backlog(t)
		nc.L2Resident = e.l2[n].ResidentSectors()
		st := e.hbm[n].Stats()
		nc.DRAMBytes = st.Bytes
		nc.DRAMBacklog = e.hbm[n].MaxBacklog(t)
		// Normalize the stack's summed channel busy so 1.0 means every
		// channel busy every cycle.
		nc.DRAMBusy = e.hbm[n].BusyCycles() / float64(e.hbm[n].Config().Channels)
	}
	// Instantaneous MSHR occupancy, reduced per node across its SMs.
	smCount := make([]int, cfg.Nodes())
	for sm, inFlight := range e.mshr {
		nc := &cum.Nodes[cfg.NodeOfSM(sm)]
		if int(inFlight) > nc.MSHRPeak {
			nc.MSHRPeak = int(inFlight)
		}
		nc.MSHRMean += float64(inFlight)
		smCount[cfg.NodeOfSM(sm)]++
	}
	for n := range cum.Nodes {
		if smCount[n] > 0 {
			cum.Nodes[n].MSHRMean /= float64(smCount[n])
		}
	}
	cum.Sched = make([]simtel.SchedNodeCum, cfg.Nodes())
	for n := range cum.Sched {
		sc := &cum.Sched[n]
		if n < len(e.queues) {
			sc.QueueDepth = len(e.queues[n])
		}
		sc.Running = int(e.telRunning[n])
		sc.Retired = e.telRetired[n]
		sc.Steals = e.telSteals[n]
	}
	cum.Batch = simtel.BatchCum{
		BatchTBs:   e.curBatch,
		TotalTBs:   e.curTotal,
		RetiredTBs: e.curRetired,
	}
	for g := range cum.GPUs {
		gc := &cum.GPUs[g]
		gc.RingBusy = e.net.RingBusy(g)
		gc.EgressBusy = e.net.EgressBusy(g)
		gc.IngressBusy = e.net.IngressBusy(g)
		gc.EgressBacklog = e.net.EgressBacklog(g, t)
		gc.IngressBacklog = e.net.IngressBacklog(g, t)
	}
	for c := range cum.L2Sectors {
		cum.L2Sectors[c] = e.run.L2[c].Sectors
	}
	e.tel.Record(cum)
}

// ErrInterrupted reports that a simulation stopped early because the
// plan's Interrupt channel closed (a canceled or timed-out job). The
// partial measurements are discarded — an interrupted run has no result.
var ErrInterrupted = errors.New("engine: simulation interrupted")

// Run simulates every launch of the plan's workload and returns the
// aggregated measurements.
func (e *Engine) Run() (*stats.Run, error) {
	for _, lp := range e.plan.Launches {
		gen, err := trace.New(lp.Launch.Kernel, e.plan.Space, e.plan.Workload.Tables,
			e.cfg.LineBytes, e.cfg.SectorBytes, e.cfg.WarpSize)
		if err != nil {
			return nil, err
		}
		for rep := 0; rep < lp.Launch.EffTimes(); rep++ {
			e.runKernel(gen, &lp)
			if e.sched.stopped {
				return nil, ErrInterrupted
			}
			e.flushL2s()
		}
	}
	e.finalizeStats()
	return e.run, nil
}

// flushL2s models the kernel-boundary L2 coherence invalidation described
// in the paper: dirty data is written back and inter-kernel L2 locality is
// lost.
func (e *Engine) flushL2s() {
	for node, l2 := range e.l2 {
		wb := l2.InvalidateAll()
		if wb > 0 {
			bytes := wb * e.cfg.SectorBytes
			e.run.DRAMBytes += uint64(bytes)
			e.hbm[node].Access(e.sched.now, 0, bytes, true)
		}
	}
}

// finalizeStats folds component counters into the Run record.
func (e *Engine) finalizeStats() {
	e.run.Cycles = e.sched.now
	e.run.InterChipletBytes = e.net.Bytes(interconnect.InterChiplet)
	e.run.InterGPUBytes = e.net.Bytes(interconnect.InterGPU)
	var rowHits, rowTotal uint64
	for _, h := range e.hbm {
		st := h.Stats()
		rowHits += st.RowHits
		rowTotal += st.RowHits + st.RowMisses
	}
	if rowTotal > 0 {
		e.run.DRAMRowHitRate = float64(rowHits) / float64(rowTotal)
	}
	e.run.PageFaults = e.plan.Space.Faults
	e.run.HostFetches = e.residency.Fetches
	e.run.TBs = e.plan.Workload.TotalTBs()

	for _, h := range e.hbm {
		if b := h.MaxChannelBusy(); b > e.run.MaxDRAMBusy {
			e.run.MaxDRAMBusy = b
		}
	}
	e.run.MaxRingBusy = e.net.MaxBusy(interconnect.InterChiplet)
	e.run.MaxLinkBusy = e.net.MaxBusy(interconnect.InterGPU)
	e.run.MaxIntraBusy = e.net.MaxBusy(interconnect.Local)
	for _, r := range e.l2srv {
		if b := r.BusyCycles(); b > e.run.MaxL2SrvBusy {
			e.run.MaxL2SrvBusy = b
		}
	}
	for _, r := range e.smIssue {
		if b := r.BusyCycles(); b > e.run.MaxIssueBusy {
			e.run.MaxIssueBusy = b
		}
	}
	if e.tel.Sampling() {
		// Flush the final partial interval, then fold the series into
		// the run's provenance summary.
		e.telSample(e.sched.now)
		e.run.Telemetry = e.tel.Summary()
	}
}

// tbExec tracks one resident threadblock's progress. Executors are pooled:
// when a TB retires, the same tbExec is rebound in place to the node
// queue's next TB (keeping its warm transaction buffer), and released to
// the engine's free list only when the queue drains.
type tbExec struct {
	e    *Engine
	gen  *trace.Generator
	lp   *runtime.LaunchPlan
	k    *kir.Kernel
	tb   int
	sm   int
	node int

	warps    int
	resident int
	stage    int // 0=pre, 1=loop, 2=post, 3=done
	m        int

	born float64 // when the TB took its resident slot (telemetry)

	buf []trace.Transaction
}

// run lets the scheduler dispatch the executor directly, with no per-step
// closure.
func (x *tbExec) run(t float64) { x.step(t) }

// runKernel executes one kernel launch to completion.
func (e *Engine) runKernel(gen *trace.Generator, lp *runtime.LaunchPlan) {
	k := lp.Launch.Kernel
	warps := k.WarpsPerTB(e.cfg.WarpSize)
	resident := e.cfg.ResidentTBs(warps)
	start := e.sched.now

	_, remaining := e.loadQueues(lp.Assignment.Queues)
	if remaining == 0 {
		return
	}
	e.curBatch = lp.Assignment.BatchTBs
	e.curTotal = remaining
	e.curRetired = 0

	// Fill every SM's resident slots round-robin so load spreads evenly.
	// The fill draws through takeTB like the rebinding path, so stealing
	// (when enabled) applies from the first slot on.
	for slot := 0; slot < resident; slot++ {
		for sm := 0; sm < e.cfg.SMs(); sm++ {
			node := e.cfg.NodeOfSM(sm)
			tb, ok := e.takeTB(node)
			if !ok {
				continue
			}
			ex := e.acquireTB()
			ex.e = e
			ex.gen = gen
			ex.lp = lp
			ex.k = k
			ex.tb = int(tb)
			ex.sm = sm
			ex.node = node
			ex.warps = warps
			ex.resident = resident
			ex.born = start
			e.telRunning[node]++
			e.sched.schedule(start, ex)
		}
	}
	e.sched.drain()
	e.tel.KernelSpan(k.Name, lp.Assignment.TotalTBs(), start, e.sched.now)
}

// step starts the threadblock's next phase.
func (x *tbExec) step(t float64) {
	iters := x.k.EffItersFor(x.tb)
	switch x.stage {
	case 0:
		x.execPhase(t, kir.PreLoop, 0)
	case 1:
		x.execPhase(t, kir.InLoop, x.m)
	default:
		x.execPhase(t, kir.PostLoop, iters-1)
	}
}

// debugPhase, when set by tests, observes phase timing.
var debugPhase func(tb, stage, m int, t0, end float64)

// debugTx, when set by tests, observes transaction timing.
var debugTx func(tb, m, i int, tx *trace.Transaction, at, done float64)

// phaseDone advances the state machine once a phase's loads have retired.
func (x *tbExec) phaseDone(end float64) {
	e := x.e
	switch x.stage {
	case 0:
		x.stage = 1
	case 1:
		x.m++
		if x.m >= x.k.EffItersFor(x.tb) {
			x.stage = 2
		}
	default:
		x.stage = 3
	}
	if x.stage < 3 {
		e.sched.schedule(end, x)
		return
	}

	// Threadblock finished: free the slot and pull the next TB, rebinding
	// this executor in place.
	e.tel.TBSpan(x.k.Name, x.node, x.sm, x.tb, x.born, end)
	e.telRetired[x.node]++
	e.curRetired++
	if tb, ok := e.takeTB(x.node); ok {
		x.tb = int(tb)
		x.stage = 0
		x.m = 0
		x.born = end
		e.sched.schedule(end, x)
		return
	}
	e.telRunning[x.node]--
	e.releaseTB(x)
}

// execPhase generates the phase's transactions and streams them through a
// sliding MSHR window; phaseDone fires when every load has retired.
func (x *tbExec) execPhase(t0 float64, phase kir.Phase, m int) {
	e := x.e
	compute := 0.0
	if phase == kir.InLoop {
		compute = x.computeDelay()
		// Modelled ALU work contributes to the MPKI denominator.
		e.run.WarpInstrs += uint64(x.warps * x.k.ALUPerIter)
	}
	if x.gen.AccessSites(phase) == 0 {
		x.phaseDone(t0 + compute)
		return
	}

	if cap(x.buf) < e.bufHint {
		// A peer executor already saw a bigger phase: jump straight to
		// the high-water capacity instead of re-growing through the
		// doublings.
		x.buf = make([]trace.Transaction, 0, e.bufHint)
	}
	x.buf = x.buf[:0]
	instrs := 0
	for w := 0; w < x.warps; w++ {
		var n int
		x.buf, n = x.gen.WarpTransactions(x.tb, w, m, phase, x.buf)
		instrs += n
	}
	x.gen.FinalizeBytes(x.buf)
	if c := cap(x.buf); c > e.bufHint {
		e.bufHint = c
	}
	e.run.WarpInstrs += uint64(instrs)

	// Each resident threadblock owns a share of the SM's MSHRs: at most
	// `window` of its transactions are in flight at once.
	window := e.cfg.MSHRsPerSM / x.resident
	if window < 1 {
		window = 1
	}
	pr := e.acquirePR()
	pr.e = e
	pr.x = x
	pr.t0 = t0
	pr.compute = compute
	// Hand the buffer off instead of copying: every transaction is issued
	// (read out of txs) before the phase can end, and x refills buf only
	// when its next phase begins — after this phase's phaseDone — so the
	// backing array is never read and rewritten concurrently.
	pr.txs = x.buf
	for i := range pr.txs {
		if pr.txs[i].Mode == kir.Load {
			pr.loadsTotal++
		}
	}
	pr.window = window
	pr.lastIssue = t0
	pr.issue(t0)
}

func (p *phaseRun) observe(end float64) {
	if debugPhase != nil {
		debugPhase(p.x.tb, p.x.stage, p.x.m, p.t0, end)
	}
}

// phaseRun drives one memory phase: a sliding window of in-flight
// transactions over the SM issue port, completion tracking, and the
// barrier that ends the phase when all loads are back. Pooled via the
// engine's free list; recycled once finished with nothing in flight.
type phaseRun struct {
	e       *Engine
	x       *tbExec
	t0      float64
	compute float64

	txs    []trace.Transaction
	next   int // next tx to issue
	window int

	inFlight   int
	loadsTotal int
	loadsDone  int

	maxLoad   float64
	lastIssue float64
	finished  bool
}

// issue pushes transactions into the window until it fills or the phase
// runs out of work.
func (p *phaseRun) issue(t float64) {
	x := p.x
	e := p.e
	for p.inFlight < p.window && p.next < len(p.txs) {
		tx := p.txs[p.next]
		p.next++
		p.inFlight++
		at := e.smIssue[x.sm].Serve(maxF(t, p.t0), 1)
		if at > p.lastIssue {
			p.lastIssue = at
		}
		if debugTx != nil {
			idx, txc := p.next-1, tx
			e.startTx(at, x.sm, x.node, tx, nil, func(dt float64, blocks bool) {
				debugTx(x.tb, x.m, idx, &txc, at, dt)
				p.onTxDone(dt, blocks)
			})
			continue
		}
		e.startTx(at, x.sm, x.node, tx, p, nil)
	}
	p.maybeFinish()
}

// onTxDone retires one transaction, freeing its MSHR slot.
func (p *phaseRun) onTxDone(t float64, blocks bool) {
	p.inFlight--
	if blocks {
		p.loadsDone++
		if t > p.maxLoad {
			p.maxLoad = t
		}
	}
	p.issue(t)
	// A finished phase lingers while background stores drain; the last
	// retirement recycles it. (If maybeFinish inside issue just released
	// p, its fields are zeroed and this check is safely false.)
	if p.finished && p.inFlight == 0 {
		p.e.releasePR(p)
	}
}

// maybeFinish ends the phase once all transactions are issued and all
// loads have retired (outstanding stores drain in the background but hold
// their MSHR slots).
func (p *phaseRun) maybeFinish() {
	if p.finished || p.next < len(p.txs) || p.loadsDone < p.loadsTotal {
		return
	}
	p.finished = true
	end := maxF(p.maxLoad, p.lastIssue) + p.compute
	p.observe(end)
	x, e := p.x, p.e
	if p.inFlight == 0 {
		e.releasePR(p)
	}
	x.phaseDone(end)
}

// computeDelay returns the modelled compute time between memory phases.
func (x *tbExec) computeDelay() float64 {
	if x.k.ComputeCyclesPerIter > 0 {
		return float64(x.k.ComputeCyclesPerIter)
	}
	return float64(x.k.ALUPerIter)
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
