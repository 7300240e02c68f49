package engine

import (
	"math/bits"

	"ladm/internal/mem/cache"
	"ladm/internal/stats"
	"ladm/internal/trace"
)

// reqHeaderBytes models the control overhead of a network request or
// response packet.
const reqHeaderBytes = 16

// The request path is event-chained: each hierarchy level books its
// bandwidth when simulated time actually reaches it (issue -> requester
// L2 -> home node -> response). Booking in time order is what keeps the
// bandwidth servers honest — computing a whole multi-hop chain inside one
// early event would reserve far-future slots and stall unrelated earlier
// traffic behind them.
//
// Path: L1 -> requesting node's L2 slice -> (interconnect -> home L2 ->
// home HBM -> interconnect) -> SM. The requester-side L2 caches remote
// data (the dynamic shared L2 of Milic et al.); whether the *home* L2
// also caches a remote-origin fill is the RTWICE/RONCE decision, taken
// per data structure from the plan (LADM's CRB).
//
// Each hop used to be a fresh closure capturing the journey's state; at
// millions of transactions per run that closure (plus its *event box) was
// the simulator's dominant allocation. The journey now lives in a pooled
// txState advanced by a stage tag: the same struct is rescheduled hop to
// hop and returned to the engine's free list on retirement, so steady
// state allocates nothing per transaction, with transaction tracing on
// or off.

// txStage tags the next hop of a pooled transaction's journey.
type txStage uint8

const (
	stageL1      txStage = iota // L1 lookup at the issuing SM
	stageLocalL2                // requesting node's L2 slice
	stageHome                   // home node's L2 slice + HBM
	stageRespond                // response crossing the requester's fabric
)

// txState is one in-flight transaction's journey state. It is acquired
// from the engine's free list at issue and released at retirement; the
// engine is single-goroutine, so a plain slice free list suffices (no
// sync.Pool, no locks).
type txState struct {
	e     *Engine
	pr    *phaseRun // retirement target
	stage txStage

	sm     int
	node   int
	home   int
	issued float64 // issue time, the start of the transaction's trace span

	tx       trace.Transaction
	missMask cache.SectorMask
	remMask  cache.SectorMask
	bytes    int
	remBytes int
	isStore  bool
}

// run advances the transaction to the hop its stage tag names. It is the
// scheduler's dispatch point, replacing the per-hop closures.
func (st *txState) run(t float64) {
	switch st.stage {
	case stageL1:
		st.e.txAtL1(t, st)
	case stageLocalL2:
		st.e.txAtLocalL2(t, st)
	case stageHome:
		st.e.txAtHome(t, st)
	default: // stageRespond
		st.finish(st.e.net.IntraNode(t, st.node, st.remBytes), true)
	}
}

// finish retires the transaction and recycles its state. The state is
// released before the phase hears of the retirement: onTxDone may issue
// new transactions, and those should be able to reuse this slot.
func (st *txState) finish(t float64, blocks bool) {
	e, pr := st.e, st.pr
	if e.tel.TxTracing() {
		mask := cache.SectorMask(st.tx.Mask())
		e.tel.TxSpan(st.node, st.sm, pop(mask)*e.cfg.SectorBytes, st.tx.Store(), st.issued, t)
	}
	e.mshr[st.sm]-- // before put zeroes st
	e.txFree.put(st)
	pr.onTxDone(t, blocks)
}

// startTx schedules the transaction's journey beginning at its issue time;
// retirement reports to pr. tx is captured by value: the caller's buffer
// may be reused.
func (e *Engine) startTx(at float64, sm, node int, tx trace.Transaction, pr *phaseRun) {
	st := e.txFree.get(txSlabMax)
	st.e = e
	st.pr = pr
	st.stage = stageL1
	st.sm = sm
	st.node = node
	st.issued = at
	st.tx = tx
	e.mshr[sm]++ // sampled as MSHR occupancy; decremented in finish
	e.sched.schedule(at, st)
}

// txAtL1 runs the L1 lookup and, on a miss, forwards the request across
// the node fabric to the local L2 slice.
func (e *Engine) txAtL1(t float64, st *txState) {
	mask := cache.SectorMask(st.tx.Mask())
	isStore := st.tx.Store()
	addr := e.addr(st.tx)
	cfg := e.cfg
	sm, node := st.sm, st.node

	missMask := mask
	if !isStore {
		res := e.l1[sm].Access(addr, mask, true, false)
		e.run.L1Sectors += uint64(pop(mask))
		e.run.L1Hits += uint64(pop(res.HitMask))
		if res.MissMask == 0 {
			st.finish(t+float64(cfg.L1Lat), true)
			return
		}
		missMask = res.MissMask
	} else {
		// Stores are write-through/no-allocate at L1: they always go
		// to L2.
		e.storeSectors += uint64(pop(mask))
	}
	bytes := pop(missMask) * cfg.SectorBytes

	// Page home resolution (first-touch faults happen here).
	home := e.plan.Space.Home(addr)
	t += float64(cfg.L1Lat)
	if home < 0 {
		e.plan.Space.TouchFirst(addr, node)
		home = node
		e.run.PageFaults++
		t += e.plan.FaultCycles
	}

	// Oversubscription: a non-resident page is fetched over the host link.
	// Proactive paging (LASP's locality-table prefetching) overlaps the
	// transfer with earlier threadblocks, so only the bandwidth is charged;
	// reactive demand paging exposes the full fault latency.
	if !e.residency.Unlimited() {
		if fetched, _ := e.residency.Touch(home, int(addr/cfg.PageBytes)); fetched {
			gpu := cfg.GPUOfNode(home)
			done := e.hostLink[gpu].Serve(t, int(cfg.PageBytes))
			e.run.HostBytes += uint64(cfg.PageBytes)
			if e.plan.Policy.ProactivePaging {
				// Staged ahead of need: the request waits only when the
				// host link itself is backlogged.
				if wait := done - float64(cfg.PageBytes)/e.hostLink[gpu].Rate(); wait > t {
					t = wait
				}
			} else {
				t = done + float64(cfg.HostFetchCycles)
			}
		}
	}

	// Every L1 miss crosses the SM<->L2 fabric of the requesting node.
	e.run.LocalBytes += uint64(bytes)
	t = e.net.IntraNode(t, node, bytes)
	st.stage = stageLocalL2
	st.home = home
	st.missMask = missMask
	st.bytes = bytes
	st.isStore = isStore
	e.sched.schedule(t, st)
}

// txAtLocalL2 services the request at the requesting node's L2 slice:
// the whole story for node-local data, the "cache remote data locally"
// lookup for remote data.
func (e *Engine) txAtLocalL2(t float64, st *txState) {
	cfg := e.cfg
	node, home, isStore := st.node, st.home, st.isStore
	missMask, bytes := st.missMask, st.bytes
	addr := e.addr(st.tx)

	if home == node {
		res := e.l2[node].Access(addr, missMask, true, isStore)
		cat := &e.run.L2[stats.LocalLocal]
		cat.Sectors += uint64(pop(missMask))
		cat.Hits += uint64(pop(res.HitMask))
		t = e.l2srv[node].Serve(t, bytes) + float64(cfg.L2Lat)
		// The eviction happens at fill time, before the triggering request's
		// own DRAM trip — booking it later would serialize whole latencies
		// into the channel queue.
		e.writeback(t, node, res)
		if res.MissMask != 0 {
			miss := pop(res.MissMask)
			e.run.L2SectorMisses += uint64(miss)
			dBytes := miss * cfg.SectorBytes
			e.run.DRAMBytes += uint64(dBytes)
			t = e.hbm[node].Access(t, addr, dBytes, isStore)
		}
		st.finish(t, !isStore)
		return
	}

	remMask := missMask
	if !isStore {
		// Requester-side L2 caches remote data.
		res := e.l2[node].Access(addr, missMask, true, false)
		cat := &e.run.L2[stats.LocalRemote]
		cat.Sectors += uint64(pop(missMask))
		cat.Hits += uint64(pop(res.HitMask))
		t = e.l2srv[node].Serve(t, bytes) + float64(cfg.L2Lat)
		e.writeback(t, node, res)
		if res.MissMask == 0 {
			st.finish(t, true)
			return
		}
		remMask = res.MissMask
	}
	remBytes := pop(remMask) * cfg.SectorBytes
	e.run.L2SectorMisses += uint64(pop(remMask))
	if isStore {
		e.remoteStoreSectors += uint64(pop(remMask))
	}

	// Request packet to the home node (stores carry their payload).
	reqBytes := reqHeaderBytes
	if isStore {
		reqBytes += remBytes
	}
	t, _ = e.net.Transfer(t, node, home, reqBytes)
	st.stage = stageHome
	st.remMask = remMask
	st.remBytes = remBytes
	e.sched.schedule(t, st)
}

// txAtHome services the request at the data's home node and, for loads,
// sends the response back to the requester.
func (e *Engine) txAtHome(t float64, st *txState) {
	cfg := e.cfg
	node, home, isStore := st.node, st.home, st.isStore
	remMask, remBytes := st.remMask, st.remBytes
	addr := e.addr(st.tx)

	// RONCE structures bypass allocation for remote-origin read fills;
	// stores always land (the home L2 is the line's point of coherence).
	allocate := isStore || !e.remoteOnce[st.tx.Site()]
	hres := e.l2[home].Access(addr, remMask, allocate, isStore)
	hcat := &e.run.L2[stats.RemoteLocal]
	hcat.Sectors += uint64(pop(remMask))
	hcat.Hits += uint64(pop(hres.HitMask))
	t = e.l2srv[home].Serve(t, remBytes) + float64(cfg.L2Lat)
	e.writeback(t, home, hres)

	if hres.MissMask != 0 {
		miss := pop(hres.MissMask)
		dBytes := miss * cfg.SectorBytes
		e.run.DRAMBytes += uint64(dBytes)
		t = e.hbm[home].Access(t, addr, dBytes, isStore)
	}

	if isStore {
		st.finish(t, false)
		return
	}
	// Response with the data travels back and crosses the requester's
	// intra-node fabric to the SM.
	t, _ = e.net.Transfer(t, home, node, remBytes+reqHeaderBytes)
	st.stage = stageRespond
	e.sched.schedule(t, st)
}

// addr returns the line-aligned address of tx.
func (e *Engine) addr(tx trace.Transaction) uint64 { return tx.Line() << e.lineShift }

// writeback retires a dirty eviction to the evicting node's DRAM. Dirty
// lines only exist in the slice that homes them (remote data is cached
// clean), so the writeback is always node local.
func (e *Engine) writeback(t float64, node int, res cache.Result) {
	if res.WritebackSectors == 0 {
		return
	}
	bytes := res.WritebackSectors * e.cfg.SectorBytes
	e.run.DRAMBytes += uint64(bytes)
	// Asynchronous: charges DRAM bandwidth without delaying the request.
	e.hbm[node].Access(t, res.VictimAddr, bytes, true)
}

func pop(m cache.SectorMask) int {
	return bits.OnesCount8(uint8(m))
}
