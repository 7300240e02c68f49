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
// symbolic.Eval would, bit for bit; and the line number is unique within a
// site's transactions, so any exact lookup merges into the same
// transaction and appends in the same first-touch order.
//
// Most sites need no lane at all. When a block's rows split every warp
// into x-runs (lanes with consecutive tid.x and one tid.y and tid.z) and
// a site's index is base + tid.x + cy·tid.y + cz·tid.z under a predicate
// that is the same for every lane, a run's lanes read consecutive
// elements, and the in-bounds ones one contiguous byte range. Such a
// site is coalesced a run at a time, that range cut into lines and
// sector masks directly, through the same line merge as the per-lane
// path, so the output is the same bit for bit (closedForm,
// coalesceRuns). Every site of the dense kernels (conv, fwt-k2,
// hotspot3d, sq-gemm, tra and the like; TestClosedFormCoverage pins five)
// takes this path. Indirect, Div/Mod and strided sites keep the per-lane
// one, as does all of lbm, whose 120-thread rows split no 32-lane warp
// into whole runs.
//
// Cost. On perfbench fig9-campaign (scale 256, 2-vCPU Xeon, go1.24.0)
// WarpTransactions and what it calls fell from 12.9 to 8.6 ms of
// sampled CPU per cell, 7.2 ms of which is the per-lane sites left,
// nearly all of the irregular workloads; trace generation fell from
// 24.9% to 20.8% of the profile, behind the event queue. A 16×16 tile
// (BenchmarkWarpTransactions2D, two runs per warp) went from 742 to
// 149 ns per warp. A later traced run (seed 1, 20 s) measured trace
// generation at 20.1%, beside the engine core, the caches and the
// event queue at about a fifth each. A sweep now generates most of
// that only once per workload: its plans share one Tape (tape.go), and
// over a fig9-campaign batch 74.9% of the memory phases are replayed.
// A CPU profile of 25 such batches put trace generation (trace plus
// kir) at 2.1 s of 29.2 s sampled, against 7.2 s of 35.6 s without
// tapes, the two run back to back on the same host.
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

// Transaction is one coalesced memory request packed into one
// pointer-free word: the line number (the line-aligned address over the
// line size), the access site, a store bit and the mask of the sectors
// the warp touches in the line. A recorded trace is a slice of these
// words, which the garbage collector never scans. New rejects a kernel
// whose words would not fit.
//
//	bits 63..17  line number
//	bits 16..9   access site
//	bit  8       store
//	bits  7..0   sector mask
type Transaction uint64

// The fields of a Transaction word: the store bit and where the site
// and the line number start.
const (
	storeBit = 1 << 8
	wordSite = 9
	wordLine = 17
	// maxSites is the number of access sites a word can name.
	maxSites = 1 << (wordLine - wordSite)
)

// Line returns the line number: the line-aligned address divided by the
// line size.
func (t Transaction) Line() uint64 { return uint64(t) >> wordLine }

// Site returns the access site's index within the kernel.
func (t Transaction) Site() int { return int(t>>wordSite) & (maxSites - 1) }

// Store reports whether the access site stores.
func (t Transaction) Store() bool { return t&storeBit != 0 }

// Mask returns the bitmask of the sectors touched within the line.
func (t Transaction) Mask() uint8 { return uint8(t) }

// access is one access site compiled for warp evaluation.
type access struct {
	index    *laneExpr
	pred     *laneExpr // nil when unpredicated
	alloc    *page.Alloc
	elemSize int64
	elems    int64
	word     Transaction // the site and store bit of its transactions
	phase    kir.Phase
	// runs marks a site that coalesces in closed form, a run at a time
	// (see closedForm).
	runs bool
}

// Generator produces transactions for one kernel over one address space.
type Generator struct {
	k        *kir.Kernel
	accesses []access
	sites    [kir.PostLoop + 1]int // access sites per phase

	lineBytes   uint64 // a power of two, as is sectorBytes
	sectorBytes uint64
	lineShift   uint // log2(lineBytes)
	sectorShift uint // log2(sectorBytes)
	warpSize    int
	// runLanes is the length of the x-runs every warp splits into —
	// lanes with consecutive tid.x and one tid.y and tid.z — or 0 when
	// some warp does not split so (see xRunLanes).
	runLanes int

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
// New rejects a kernel whose access sites or lines a Transaction word
// cannot name.
func New(k *kir.Kernel, space *page.Space, tables map[string][]int64,
	lineBytes, sectorBytes, warpSize int) (*Generator, error) {
	if lineBytes <= 0 || sectorBytes <= 0 || lineBytes%sectorBytes != 0 ||
		bits.OnesCount(uint(lineBytes)) != 1 || bits.OnesCount(uint(sectorBytes)) != 1 {
		return nil, fmt.Errorf("trace: bad line/sector geometry %d/%d", lineBytes, sectorBytes)
	}
	if lineBytes/sectorBytes > 8 {
		return nil, fmt.Errorf("trace: more than 8 sectors per line unsupported")
	}
	if len(k.Accesses) > maxSites {
		return nil, fmt.Errorf("trace: kernel %q has %d access sites, more than %d", k.Name, len(k.Accesses), maxSites)
	}
	g := &Generator{
		k:           k,
		lineBytes:   uint64(lineBytes),
		sectorBytes: uint64(sectorBytes),
		lineShift:   uint(bits.TrailingZeros(uint(lineBytes))),
		sectorShift: uint(bits.TrailingZeros(uint(sectorBytes))),
		warpSize:    warpSize,
		runLanes:    xRunLanes(k.Block, warpSize),
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
		// The last byte an in-bounds element of the site can touch.
		if n := alloc.Elems(); n > 0 && (alloc.ElemAddr(n-1)+uint64(acc.ElemSize)-1)>>g.lineShift >= 1<<(64-wordLine) {
			return nil, fmt.Errorf("trace: kernel %q array %q lies past the lines a transaction can name", k.Name, acc.Array)
		}
		ca := access{
			alloc:    alloc,
			index:    b.expr(k.SubstitutedIndex(i)),
			elemSize: int64(acc.ElemSize),
			elems:    alloc.Elems(),
			word:     Transaction(i) << wordSite,
			phase:    acc.Phase,
		}
		if acc.Mode == kir.Store {
			ca.word |= storeBit
		}
		if p := k.SubstitutedPred(i); p != nil {
			ca.pred = b.expr(p)
		}
		ca.runs = g.closedForm(&ca)
		g.accesses = append(g.accesses, ca)
		g.sites[acc.Phase]++
	}
	return g, nil
}

// xRunLanes returns the lanes per x-run when every warp of a block
// splits into whole x-runs: a block row that is a multiple of the warp
// holds whole warps (one run each), and one that divides the warp packs
// whole rows into it, the last warp included, since a block holds whole
// rows. Any other shape returns 0.
func xRunLanes(block kir.Dim3, warpSize int) int {
	switch {
	case block.X%warpSize == 0:
		return warpSize
	case warpSize%block.X == 0:
		return block.X
	}
	return 0
}

// closedForm reports whether site acc coalesces in closed form: its
// warps split into x-runs, its index is base + tid.x + cy·tid.y +
// cz·tid.z (no per-lane term, tid.x coefficient the constant 1), its
// predicate, if any, is the same for every lane, and its elements are
// as wide as the allocation's. Then a run's in-bounds lanes read one
// contiguous byte range, which coalescing cuts into lines directly.
func (g *Generator) closedForm(acc *access) bool {
	ix := acc.index
	return g.runLanes > 0 && len(ix.lane) == 0 && ix.linK[0] == 1 && len(ix.lin[0]) == 0 &&
		(acc.pred == nil || acc.pred.tidFree) && acc.elemSize == int64(acc.alloc.ElemSize)
}

// Kernel returns the kernel the generator was built for.
func (g *Generator) Kernel() *kir.Kernel { return g.k }

// AccessSites returns the number of access sites per phase, used by the
// engine to size its per-iteration instruction accounting.
func (g *Generator) AccessSites(phase kir.Phase) int { return g.sites[phase] }

// Phase appends the transactions of every warp of threadblock tbLinear at
// loop iteration m for the given phase, warp after warp: one memory
// phase of the threadblock, the words the engine issues and a Tape
// records.
func (g *Generator) Phase(tbLinear, m int, phase kir.Phase, out []Transaction) []Transaction {
	for w := range g.warps() {
		out, _ = g.WarpTransactions(tbLinear, w, m, phase, out)
	}
	return out
}

// PhaseInstrs returns the warp memory instructions one threadblock's
// phase issues: the instruction counts of its warps' WarpTransactions
// calls, summed, which depend on the phase alone.
func (g *Generator) PhaseInstrs(phase kir.Phase) int { return g.warps() * g.sites[phase] }

// warps returns the number of warps that hold a thread of the block.
func (g *Generator) warps() int { return (len(g.tids) + g.warpSize - 1) / g.warpSize }

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
		if acc.runs {
			if acc.pred == nil || acc.pred.scalar(&g.env) > 0 {
				out = g.coalesceRuns(out, acc)
			}
			continue
		}
		idx := acc.index.lanes(&g.env, g.idxBuf)
		var pred []int64
		if acc.pred != nil {
			pred = acc.pred.lanes(&g.env, g.predBuf)
		}
		out = g.coalesce(out, acc, idx, pred)
	}
	return out, instrs
}

// cursor is where an access site's coalescing stands: the line number it
// touched last and that line's position in the output (-1 before the
// first touch).
type cursor struct {
	line uint64
	pos  int
}

// coalesce appends the transactions of one access site: the lines its
// active lanes touch, in first-touch order, each with the mask of sectors
// touched. An element that crosses a line boundary splits across lines as
// the hardware would.
func (g *Generator) coalesce(out []Transaction, acc *access, idx, pred []int64) []Transaction {
	g.lines.reset()
	c := cursor{pos: -1}
	for l, i := range idx {
		if pred != nil && pred[l] <= 0 {
			continue
		}
		if i < 0 || i >= acc.elems {
			continue // out-of-bounds threads are predicated off
		}
		addr := acc.alloc.ElemAddr(i)
		out = g.touch(out, &c, acc, addr, addr+uint64(acc.elemSize))
	}
	return out
}

// coalesceRuns is coalesce for a closed-form site (see closedForm). In
// each x-run of the warp, lane k reads element first+k, so the run's
// in-bounds lanes read the elements [max(first, 0), min(first+n, elems))
// and the bytes between their addresses, in lane order. Touching that
// range line by line merges the same lines, in the same order, into the
// same masks as touching each lane's element in turn.
func (g *Generator) coalesceRuns(out []Transaction, acc *access) []Transaction {
	g.lines.reset()
	cur := cursor{pos: -1}
	base, c := acc.index.scalar(&g.env), acc.index.coefs(&g.env) // c[0] is 1
	n := int64(g.runLanes)
	for r := 0; r < len(g.env.tids); r += g.runLanes {
		t := &g.env.tids[r]
		first := base + t.x + c[1]*t.y + c[2]*t.z
		// first+n wraps only for a first past elems, where lo > hi too.
		lo, hi := max(first, 0), min(first+n, acc.elems)
		if lo >= hi {
			continue
		}
		addr := acc.alloc.ElemAddr(lo)
		out = g.touch(out, &cur, acc, addr, addr+uint64(hi-lo)*uint64(acc.elemSize))
	}
	return out
}

// touch merges the bytes [addr, end) of site acc into out, a line at a
// time, each line with the mask of sectors it covers. Consecutive
// touches mostly land on the line the cursor holds, so that line is
// checked before the line index.
func (g *Generator) touch(out []Transaction, c *cursor, acc *access, addr, end uint64) []Transaction {
	for addr < end {
		line := addr >> g.lineShift
		off := addr & (g.lineBytes - 1)
		span := min(g.lineBytes-off, end-addr)
		first, last := off>>g.sectorShift, (off+span-1)>>g.sectorShift
		mask := Transaction(uint64(2)<<last - uint64(1)<<first)
		if c.pos < 0 || line != c.line {
			c.pos = g.lines.lookup(out, line)
			if c.pos < 0 {
				c.pos = len(out)
				out = append(out, acc.word|Transaction(line)<<wordLine)
			}
			c.line = line
		}
		out[c.pos] |= mask
		addr += span
	}
	return out
}

// lineIndex finds the transaction an access site already holds for a
// line in O(1): an open-addressed table from line number to output
// position. Slots carry the generation that wrote them, so reset is one
// increment instead of a clear. Past half occupancy the table stops
// growing and later lines spill to a linear scan of the output tail,
// which keeps probes short however many lines one warp touches. Lookup
// order never matters — a line number is unique within one site's
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
	line uint64
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

func (x *lineIndex) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> x.shift)
}

// lookup returns the position in out of line's transaction. On a miss it
// returns -1 and records line at len(out), where the caller appends it.
func (x *lineIndex) lookup(out []Transaction, line uint64) int {
	mask := len(x.slots) - 1
	i := x.home(line)
	for ; x.slots[i].gen == x.gen; i = (i + 1) & mask {
		if x.slots[i].line == line {
			return int(x.slots[i].pos)
		}
	}
	if x.spill >= 0 {
		for j := x.spill; j < len(out); j++ {
			if out[j].Line() == line {
				return j
			}
		}
		return -1
	}
	if x.used == len(x.slots)/2 {
		x.spill = len(out)
		return -1
	}
	x.slots[i] = lineSlot{line: line, pos: int32(len(out)), gen: x.gen}
	x.used++
	return -1
}
