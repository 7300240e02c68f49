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
// free lists are plain slices — no locks. Transaction tracing rides the
// same pooled state; see DESIGN.md "Allocation-free event core".
//
// The free lists and the arena outlive a cell. A run that finishes
// retires its engine to a package-level sync.Pool, and the next New, on
// any machine, builds over the retired engine's arrays: its machine
// slices, its event arena and its free lists. See DESIGN.md "Recycled
// engines".
package engine

import (
	"errors"
	"sync"

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

	// The machine, held by value: a few slices, rebuilt in place for
	// each cell (see build), not one heap object per hardware unit.
	// Index into them; go vet reports a by-value range or copy of a
	// cache, resource or HBM stack.
	net     *interconnect.Network
	l1      []cache.Cache       // per SM
	l2      []cache.Cache       // per node
	l2srv   []queueing.Resource // per node: L2 bank service bandwidth
	hbm     []dram.HBM          // per node
	smIssue []queueing.Resource // per SM: LSU issue (transactions/cycle)

	// Oversubscription: device residency per node and host links per GPU.
	residency *page.Residency
	hostLink  []queueing.Resource

	sched scheduler
	run   *stats.Run

	// Free lists recycling the event core's per-transaction, per-phase
	// and per-threadblock state.
	txFree freeList[txState]
	prFree freeList[phaseRun]
	tbFree freeList[tbExec]

	// Per-node TB queue storage, reused across kernel launches,
	// EffTimes() repetitions and cells instead of reallocating every
	// launch.
	queues    [][]int32
	queueBack [][]int32

	// bufHint is the high-water transaction-buffer capacity: execPhase
	// presizes every smaller buffer to it, skipping the growth reallocs.
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

	// Request-path books, kept beside stats.Run rather than in it: the
	// sectors stores send past the L1 (write-through, no allocate), and
	// the part of them homed on another node, which goes straight to the
	// home L2 and skips the requester-side slice. The tests balance them
	// against the L1 and L2 categories after each run.
	storeSectors       uint64
	remoteStoreSectors uint64

	// tel observes the run (nil: telemetry disabled; every hook is
	// nil-safe and the engine's timing is identical either way).
	tel *simtel.Collector
}

// enginePool holds retired engines (see Engine.retire): one pool for
// every machine, so an engine's arrays grow to the largest machine it
// has run. A retired engine holds no cache lines and no reference into
// its last cell, and the GC empties the pool of engines left idle for
// two cycles.
var enginePool sync.Pool // of *Engine

// New builds an engine for a prepared plan, in place over a retired
// engine's arrays when the pool holds one.
func New(plan *runtime.Plan) *Engine {
	e, _ := enginePool.Get().(*Engine)
	if e == nil {
		e = new(Engine)
	}
	return build(plan, e)
}

// build builds the engine for plan in e, a retired or zero engine, and
// returns it. Every element of every slice it keeps is overwritten the
// way a fresh one is built, so only capacity carries over from e's last
// cell: the machine's slices, the event arena and the free lists.
func build(plan *runtime.Plan, e *Engine) *Engine {
	cfg := plan.Cfg
	sms, nodes := cfg.SMs(), cfg.Nodes()
	hcfg := dram.DefaultConfig(cfg.BytesPerCycle(cfg.DRAMPerNodeGBs))
	if cfg.DRAMChannels > 0 {
		hcfg.Channels = cfg.DRAMChannels
	}
	if cfg.DRAMLat > 0 {
		hcfg.AccessLat = cfg.DRAMLat
	}
	capacityPages := 0
	if cfg.MemCapacityPerNodeKB > 0 {
		capacityPages = int(uint64(cfg.MemCapacityPerNodeKB) << 10 / cfg.PageBytes)
		if capacityPages < 1 {
			capacityPages = 1
		}
	}
	*e = Engine{
		cfg:  cfg,
		plan: plan,
		net:  interconnect.New(cfg),
		l1: cache.NewLevel(e.l1, cache.Config{
			Sets:        cfg.L1Sets(),
			Assoc:       cfg.L1Assoc,
			LineBytes:   cfg.LineBytes,
			SectorBytes: cfg.SectorBytes,
		}, sms),
		l2: cache.NewLevel(e.l2, cache.Config{
			Sets:        cfg.L2SetsPerNode(),
			Assoc:       cfg.L2Assoc,
			LineBytes:   cfg.LineBytes,
			SectorBytes: cfg.SectorBytes,
		}, nodes),
		l2srv:     resize(e.l2srv, nodes),
		hbm:       dram.NewStacks(e.hbm, hcfg, nodes),
		smIssue:   resize(e.smIssue, sms),
		residency: page.NewResidency(nodes, capacityPages),
		hostLink:  resize(e.hostLink, cfg.GPUs),
		sched:     scheduler{events: e.sched.events},
		run: &stats.Run{
			Workload: plan.Workload.Name,
			Policy:   plan.Policy.Name,
			Arch:     cfg.Name,
		},
		txFree:     e.txFree,
		prFree:     e.prFree,
		tbFree:     e.tbFree,
		queues:     e.queues[:0],
		queueBack:  e.queueBack,
		stealTBs:   plan.Policy.StealTBs,
		mshr:       resize(e.mshr, sms),
		telRunning: resize(e.telRunning, nodes),
		telRetired: resize(e.telRetired, nodes),
		telSteals:  resize(e.telSteals, nodes),
		tel:        plan.Tel,
	}
	for sm := range e.smIssue {
		e.smIssue[sm].Init(queueing.SMIssue, sm, 0, float64(cfg.IssuePerCycle))
	}
	// L2 bank service: each bank moves one sector per cycle.
	l2Rate := float64(cfg.L2Banks * cfg.SectorBytes)
	for node := range e.l2srv {
		e.l2srv[node].Init(queueing.L2Service, node, 0, l2Rate)
	}
	for gpu := range e.hostLink {
		e.hostLink[gpu].Init(queueing.HostLink, gpu, 0, cfg.BytesPerCycle(cfg.HostLinkGBs))
	}
	// A finished run leaves every node on the arena's free list and no
	// bucket in use; only the last key popped carries over.
	e.sched.events.last = 0
	e.sched.interrupt = plan.Interrupt
	if e.tel.Sampling() {
		e.sched.startSampling(e.tel.SampleEvery(), e.telSample)
	}
	e.tel.SetTopology(nodes, cfg.SMsPerChiplet)
	return e
}

// resize returns n zero elements in s's array when it has the capacity,
// and in a new one otherwise.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// freeList recycles one kind of pooled state. The engine is
// single-goroutine, so it is a plain slice: no sync.Pool, no locks.
//
// Refills come in slabs: the pools' warm-up used to be the simulator's
// dominant allocation count (one heap object per peak in-flight
// transaction — 160k allocs/op on random-loc, misattributed for a while
// to the symbolic env handling until a profile pinned it on the
// transaction pool). A slab turns N warm-up allocations into one without
// changing the free list's steady-state behavior: released objects still
// recycle individually. The first slab holds slabFirst objects and each
// later one as many as were carved before it, up to the list's limit,
// so a cheap cell does not carve a full slab of state it never uses.
type freeList[T any] struct {
	free []*T
	// carved counts the objects carved from slabs so far. Once a run
	// drains, every carved object is back on the list; the tests check
	// these books after each run.
	carved int
}

// slabFirst is the size of every free list's first slab; the limits
// are the sizes the slabs double up to.
const (
	slabFirst = 8
	txSlabMax = 256
	prSlabMax = 64
	tbSlabMax = 32
)

// get pops a recycled object, or carves a fresh slab of at most limit
// objects and returns its first.
func (l *freeList[T]) get(limit int) *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	slab := make([]T, min(max(l.carved, slabFirst), limit))
	l.carved += len(slab)
	for i := range slab[1:] {
		l.free = append(l.free, &slab[1+i])
	}
	return &slab[0]
}

// put zeroes x and returns it to the list. Safe because the engine is
// single-goroutine and the caller drops every reference to x.
func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}

// releaseTB recycles an executor whose node queue has drained, keeping
// its transaction buffer, so steady-state phases coalesce into warm
// backing arrays (execPhase sizes the buffer and raises bufHint).
// Outstanding stores from the final phase reference their phaseRun, not
// x, so clearing x here is safe.
func (e *Engine) releaseTB(x *tbExec) {
	buf := x.buf[:0]
	e.tbFree.put(x)
	x.buf = buf
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
// aggregated measurements. It then releases the machine's cache pages
// for the next cell to reuse, and after a run that finished it retires
// the engine to the pool the next New builds from. Run retires the
// engine: do not use it afterwards.
func (e *Engine) Run() (*stats.Run, error) {
	run, err := e.simulate()
	e.release()
	if err != nil {
		// An interrupted run left state off its free lists: drop it.
		return nil, err
	}
	e.retire()
	enginePool.Put(e)
	return run, nil
}

// simulate is Run before the release and the retirement: the tests
// check the machine's books between them.
func (e *Engine) simulate() (*stats.Run, error) {
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

// release returns every L1's and L2 slice's pages to the cache
// package's pool (see cache.Cache.Release).
func (e *Engine) release() {
	for sm := range e.l1 {
		e.l1[sm].Release()
	}
	for node := range e.l2 {
		e.l2[node].Release()
	}
}

// retire readies a finished engine, its books closed and its pages
// released, for the pool. It drops every reference into the finished
// cell, and every free executor's transaction buffer, so a retired
// engine never holds one large cell's buffers. What it keeps is
// capacity that build overwrites: the machine's slices, the event
// arena, every node of it on the free list, and the free lists. build
// resets the rest on its own, so a zero engine and a retired one build
// alike.
func (e *Engine) retire() {
	e.cfg, e.plan, e.run, e.net, e.tel, e.residency = nil, nil, nil, nil, nil, nil
	e.sched.interrupt, e.sched.sampleFn = nil, nil
	for _, x := range e.tbFree.free {
		x.buf = nil
	}
}

// flushL2s models the kernel-boundary L2 coherence invalidation described
// in the paper: dirty data is written back and inter-kernel L2 locality is
// lost.
func (e *Engine) flushL2s() {
	for node := range e.l2 {
		wb := e.l2[node].InvalidateAll()
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
	for node := range e.hbm {
		st := e.hbm[node].Stats()
		rowHits += st.RowHits
		rowTotal += st.RowHits + st.RowMisses
	}
	if rowTotal > 0 {
		e.run.DRAMRowHitRate = float64(rowHits) / float64(rowTotal)
	}
	e.run.PageFaults = e.plan.Space.Faults
	e.run.HostFetches = e.residency.Fetches
	e.run.TBs = e.plan.Workload.TotalTBs()

	for node := range e.hbm {
		if b := e.hbm[node].MaxChannelBusy(); b > e.run.MaxDRAMBusy {
			e.run.MaxDRAMBusy = b
		}
	}
	e.run.MaxRingBusy = e.net.MaxBusy(interconnect.InterChiplet)
	e.run.MaxLinkBusy = e.net.MaxBusy(interconnect.InterGPU)
	e.run.MaxIntraBusy = e.net.MaxBusy(interconnect.Local)
	for node := range e.l2srv {
		if b := e.l2srv[node].BusyCycles(); b > e.run.MaxL2SrvBusy {
			e.run.MaxL2SrvBusy = b
		}
	}
	for sm := range e.smIssue {
		if b := e.smIssue[sm].BusyCycles(); b > e.run.MaxIssueBusy {
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
			ex := e.tbFree.get(tbSlabMax)
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
	pr := e.prFree.get(prSlabMax)
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
		e.startTx(at, x.sm, x.node, tx, p)
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
		p.e.prFree.put(p)
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
	x, e := p.x, p.e
	if p.inFlight == 0 {
		e.prFree.put(p)
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
