// Package trace turns kernel IR into memory transactions: for each warp,
// each outer-loop iteration, and each access site, it evaluates the
// symbolic index for the warp's 32 threads, applies predicates and bounds,
// and coalesces the touched bytes into line-granularity transactions with
// sector masks — the same coalescing a GPU's load/store unit performs.
//
// Evaluation works a warp at a time (warp.go). New normalizes each index
// and predicate once into symbolic.Normalize's polynomial and splits it
// the way LADM's compiler splits an index: terms free of threadIdx form a
// base evaluated once per warp, terms linear in one tid component become
// per-warp coefficients, so most lanes cost base + cx·tid.x + cy·tid.y +
// cz·tid.z over a precomputed tid table. Only Indirect/Div/Mod atoms that
// read threadIdx, and products of tid components, evaluate per lane.
// Coalescing finds a line's transaction through a generation-stamped hash
// index instead of scanning the site's transactions. Both are exact: the
// polynomial is a rewrite of the tree in the ring Z/2^64 that wrapping
// int64 arithmetic implements, so every lane computes the index
// symbolic.Eval would, bit for bit; and (Addr, Access) is unique within a
// site's transactions, so any exact lookup merges into the same
// transaction and appends in the same first-touch order.
//
// Because the generator evaluates the very expressions the static analyzer
// classified, placement decisions made from the analysis meet exactly the
// traffic the analysis predicted (or failed to predict, for indirect
// accesses) — faithfully reproducing the relationship between LADM's
// compiler and the simulated hardware.
package trace

import (
	"fmt"
	"math/bits"

	"ladm/internal/kir"
	"ladm/internal/mem/page"
)

// Transaction is one coalesced memory request: a line-aligned address plus
// the mask of 32-byte sectors the warp touches in that line.
type Transaction struct {
	Addr   uint64 // line-aligned
	Mask   uint8  // sector bitmask within the line
	Bytes  int    // active bytes (sector count * sector size)
	Access int    // access site index within the kernel
	Mode   kir.AccessMode
	Alloc  *page.Alloc
}

// access is one access site compiled for warp evaluation.
type access struct {
	index    *laneExpr
	pred     *laneExpr // nil when unpredicated
	alloc    *page.Alloc
	elemSize int64
	elems    int64
	mode     kir.AccessMode
	phase    kir.Phase
}

// Generator produces transactions for one kernel over one address space.
type Generator struct {
	k        *kir.Kernel
	accesses []access
	sites    [kir.PostLoop + 1]int // access sites per phase

	lineBytes   uint64 // a power of two, as is sectorBytes
	sectorBytes uint64
	sectorShift uint // log2(sectorBytes)
	warpSize    int

	tids    []tid // threadIdx of every thread of a block
	env     warpEnv
	idxBuf  []int64
	predBuf []int64
	lines   lineIndex
}

// New builds a generator. Every array accessed by the kernel must already
// have an allocation in space (the runtime mallocs before launch). tables
// backs the kernel's Indirect atoms with kir.Workload.Resolver's
// semantics: a missing table reads zero and indices clamp to its bounds.
func New(k *kir.Kernel, space *page.Space, tables map[string][]int64,
	lineBytes, sectorBytes, warpSize int) (*Generator, error) {
	if lineBytes <= 0 || sectorBytes <= 0 || lineBytes%sectorBytes != 0 ||
		bits.OnesCount(uint(lineBytes)) != 1 || bits.OnesCount(uint(sectorBytes)) != 1 {
		return nil, fmt.Errorf("trace: bad line/sector geometry %d/%d", lineBytes, sectorBytes)
	}
	if lineBytes/sectorBytes > 8 {
		return nil, fmt.Errorf("trace: more than 8 sectors per line unsupported")
	}
	g := &Generator{
		k:           k,
		lineBytes:   uint64(lineBytes),
		sectorBytes: uint64(sectorBytes),
		sectorShift: uint(bits.TrailingZeros(uint(sectorBytes))),
		warpSize:    warpSize,
		tids:        tidTable(k.Block),
		idxBuf:      make([]int64, warpSize),
		predBuf:     make([]int64, warpSize),
		accesses:    make([]access, 0, len(k.Accesses)),
	}
	g.lines.init(warpSize)
	consts := k.BaseEnv()
	b := evalBuilder{consts: &consts, tables: tables, width: warpSize}
	for i := range k.Accesses {
		acc := &k.Accesses[i]
		alloc := space.Lookup(acc.Array)
		if alloc == nil {
			return nil, fmt.Errorf("trace: kernel %q array %q not allocated", k.Name, acc.Array)
		}
		if acc.Phase < 0 || int(acc.Phase) >= len(g.sites) {
			return nil, fmt.Errorf("trace: kernel %q access %d has unknown phase %d", k.Name, i, acc.Phase)
		}
		ca := access{
			alloc:    alloc,
			index:    b.expr(k.SubstitutedIndex(i)),
			elemSize: int64(acc.ElemSize),
			elems:    alloc.Elems(),
			mode:     acc.Mode,
			phase:    acc.Phase,
		}
		if p := k.SubstitutedPred(i); p != nil {
			ca.pred = b.expr(p)
		}
		g.accesses = append(g.accesses, ca)
		g.sites[acc.Phase]++
	}
	return g, nil
}

// Kernel returns the kernel the generator was built for.
func (g *Generator) Kernel() *kir.Kernel { return g.k }

// AccessSites returns the number of access sites per phase, used by the
// engine to size its per-iteration instruction accounting.
func (g *Generator) AccessSites(phase kir.Phase) int { return g.sites[phase] }

// WarpTransactions appends the coalesced transactions of warp `warp` of
// threadblock tbLinear at loop iteration m for the given phase, and
// returns the extended slice together with the number of warp memory
// instructions represented (one per access site that had any active
// thread; predicated-off warps still count as issued instructions).
//
// Buffer contract: the generator only appends to out and never retains it,
// so callers may recycle one buffer across phases and even hand the filled
// slice to a consumer without copying — provided the consumer reads every
// element before the caller truncates and refills the buffer. The engine's
// phaseRun relies on exactly this: a phase issues all its transactions
// before it ends, and the buffer is refilled only when the next phase
// begins.
func (g *Generator) WarpTransactions(tbLinear, warp, m int, phase kir.Phase, out []Transaction) ([]Transaction, int) {
	lo := warp * g.warpSize
	if lo >= len(g.tids) {
		return out, 0
	}
	hi := min(lo+g.warpSize, len(g.tids))
	bX, bY := g.k.Grid.X, max(g.k.Grid.Y, 1)
	g.env.vars = [numSlots]int64{
		slotBidX: int64(tbLinear % bX),
		slotBidY: int64((tbLinear / bX) % bY),
		slotBidZ: int64(tbLinear / (bX * bY)),
		slotM:    int64(m),
	}
	g.env.tids = g.tids[lo:hi]

	instrs := 0
	for ai := range g.accesses {
		acc := &g.accesses[ai]
		if acc.phase != phase {
			continue
		}
		instrs++
		idx := acc.index.lanes(&g.env, g.idxBuf)
		var pred []int64
		if acc.pred != nil {
			pred = acc.pred.lanes(&g.env, g.predBuf)
		}
		out = g.coalesce(out, ai, acc, idx, pred)
	}
	return out, instrs
}

// coalesce appends the transactions of one access site: the lines its
// active lanes touch, in first-touch order, each with the mask of sectors
// touched. An element that crosses a line boundary splits across lines as
// the hardware would. Consecutive lanes mostly hit the line the previous
// lane hit, so that line is checked before the line index.
func (g *Generator) coalesce(out []Transaction, ai int, acc *access, idx, pred []int64) []Transaction {
	g.lines.reset()
	last, lastPos := uint64(0), -1
	for l, i := range idx {
		if pred != nil && pred[l] <= 0 {
			continue
		}
		if i < 0 || i >= acc.elems {
			continue // out-of-bounds threads are predicated off
		}
		addr := acc.alloc.ElemAddr(i)
		for bytes := uint64(acc.elemSize); bytes > 0; {
			line := addr &^ (g.lineBytes - 1)
			off := addr - line
			span := min(g.lineBytes-off, bytes)
			first, end := off>>g.sectorShift, (off+span-1)>>g.sectorShift
			mask := uint8(uint64(2)<<end - uint64(1)<<first)
			if lastPos < 0 || line != last {
				lastPos = g.lines.lookup(out, line)
				if lastPos < 0 {
					lastPos = len(out)
					out = append(out, Transaction{Addr: line, Access: ai, Mode: acc.mode, Alloc: acc.alloc})
				}
				last = line
			}
			out[lastPos].Mask |= mask
			addr += span
			bytes -= span
		}
	}
	return out
}

// lineIndex finds the transaction an access site already holds for a
// line in O(1): an open-addressed table from line address to output
// position. Slots carry the generation that wrote them, so reset is one
// increment instead of a clear. Past half occupancy the table stops
// growing and later lines spill to a linear scan of the output tail,
// which keeps probes short however many lines one warp touches. Lookup
// order never matters — (Addr, Access) is unique within one site's
// transactions — and appends happen in first-touch order, so the output
// is the same as a linear scan's.
type lineIndex struct {
	slots []lineSlot // power-of-two length
	shift uint       // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	gen   uint32
	used  int // slots holding gen
	spill int // first output position not in the table, or -1
}

type lineSlot struct {
	addr uint64
	pos  int32
	gen  uint32
}

func (x *lineIndex) init(warpSize int) {
	n := 64
	for n < 4*warpSize {
		n <<= 1
	}
	x.slots = make([]lineSlot, n)
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// reset empties the index for the next access site.
func (x *lineIndex) reset() {
	x.gen++
	if x.gen == 0 { // wrapped: slots stamped 2^32 sites ago would match
		clear(x.slots)
		x.gen = 1
	}
	x.used = 0
	x.spill = -1
}

func (x *lineIndex) home(addr uint64) int {
	return int((addr * 0x9E3779B97F4A7C15) >> x.shift)
}

// lookup returns the position in out of addr's transaction. On a miss it
// returns -1 and records addr at len(out), where the caller appends it.
func (x *lineIndex) lookup(out []Transaction, addr uint64) int {
	mask := len(x.slots) - 1
	i := x.home(addr)
	for ; x.slots[i].gen == x.gen; i = (i + 1) & mask {
		if x.slots[i].addr == addr {
			return int(x.slots[i].pos)
		}
	}
	if x.spill >= 0 {
		for j := x.spill; j < len(out); j++ {
			if out[j].Addr == addr {
				return j
			}
		}
		return -1
	}
	if x.used == len(x.slots)/2 {
		x.spill = len(out)
		return -1
	}
	x.slots[i] = lineSlot{addr: addr, pos: int32(len(out)), gen: x.gen}
	x.used++
	return -1
}

// FinalizeBytes fills Transaction.Bytes from the sector masks. Callers run
// it once per batch after coalescing completes.
func (g *Generator) FinalizeBytes(txs []Transaction) {
	for i := range txs {
		txs[i].Bytes = popcount8(txs[i].Mask) * int(g.sectorBytes)
	}
}

func popcount8(m uint8) int {
	return bits.OnesCount8(m)
}
