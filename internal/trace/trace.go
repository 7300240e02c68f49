// Package trace turns kernel IR into memory transactions: for each warp,
// each outer-loop iteration, and each access site, it evaluates the
// symbolic index for the warp's 32 threads, applies predicates and bounds,
// and coalesces the touched bytes into line-granularity transactions with
// sector masks — the same coalescing a GPU's load/store unit performs.
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
	sym "ladm/internal/symbolic"
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

type compiledAccess struct {
	alloc    *page.Alloc
	index    sym.Compiled
	pred     sym.Compiled // nil when unpredicated
	elemSize int64
	elems    int64
	mode     kir.AccessMode
	phase    kir.Phase
}

// Generator produces transactions for one kernel over one address space.
type Generator struct {
	k        *kir.Kernel
	accesses []compiledAccess

	lineBytes   uint64
	sectorBytes uint64
	warpSize    int

	env sym.Env
}

// New builds a generator. Every array accessed by the kernel must already
// have an allocation in space (the runtime mallocs before launch).
func New(k *kir.Kernel, space *page.Space, resolve func(string, int64) int64,
	lineBytes, sectorBytes, warpSize int) (*Generator, error) {
	if lineBytes <= 0 || sectorBytes <= 0 || lineBytes%sectorBytes != 0 {
		return nil, fmt.Errorf("trace: bad line/sector geometry %d/%d", lineBytes, sectorBytes)
	}
	if lineBytes/sectorBytes > 8 {
		return nil, fmt.Errorf("trace: more than 8 sectors per line unsupported")
	}
	g := &Generator{
		k:           k,
		lineBytes:   uint64(lineBytes),
		sectorBytes: uint64(sectorBytes),
		warpSize:    warpSize,
		env:         k.BaseEnv(),
	}
	g.env.Resolve = resolve
	for i := range k.Accesses {
		acc := &k.Accesses[i]
		alloc := space.Lookup(acc.Array)
		if alloc == nil {
			return nil, fmt.Errorf("trace: kernel %q array %q not allocated", k.Name, acc.Array)
		}
		ca := compiledAccess{
			alloc:    alloc,
			index:    sym.Compile(k.SubstitutedIndex(i)),
			elemSize: int64(acc.ElemSize),
			elems:    alloc.Elems(),
			mode:     acc.Mode,
			phase:    acc.Phase,
		}
		if p := k.SubstitutedPred(i); p != nil {
			ca.pred = sym.Compile(p)
		}
		g.accesses = append(g.accesses, ca)
	}
	return g, nil
}

// Kernel returns the kernel the generator was built for.
func (g *Generator) Kernel() *kir.Kernel { return g.k }

// AccessSites returns the number of access sites per phase, used by the
// engine to size its per-iteration instruction accounting.
func (g *Generator) AccessSites(phase kir.Phase) int {
	n := 0
	for i := range g.accesses {
		if g.accesses[i].phase == phase {
			n++
		}
	}
	return n
}

// setThread binds the environment to linear thread t of threadblock tb.
func (g *Generator) setThread(tbLinear, t int) {
	bX := g.k.Grid.X
	g.env.Bid = [3]int64{
		int64(tbLinear % bX),
		int64((tbLinear / bX) % maxInt(g.k.Grid.Y, 1)),
		int64(tbLinear / (bX * maxInt(g.k.Grid.Y, 1))),
	}
	blkX := g.k.Block.X
	blkY := maxInt(g.k.Block.Y, 1)
	g.env.Tid = [3]int64{
		int64(t % blkX),
		int64((t / blkX) % blkY),
		int64(t / (blkX * blkY)),
	}
}

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
	threads := g.k.Block.Count()
	lo := warp * g.warpSize
	if lo >= threads {
		return out, 0
	}
	hi := lo + g.warpSize
	if hi > threads {
		hi = threads
	}
	g.env.M = int64(m)

	instrs := 0
	for ai := range g.accesses {
		acc := &g.accesses[ai]
		if acc.phase != phase {
			continue
		}
		instrs++
		start := len(out)
		for t := lo; t < hi; t++ {
			g.setThread(tbLinear, t)
			if acc.pred != nil && acc.pred(&g.env) <= 0 {
				continue
			}
			idx := acc.index(&g.env)
			if idx < 0 || idx >= acc.elems {
				continue // out-of-bounds threads are predicated off
			}
			addr := acc.alloc.ElemAddr(idx)
			out = g.merge(out, start, addr, int(acc.elemSize), ai, acc)
		}
	}
	return out, instrs
}

// merge coalesces [addr, addr+bytes) into the transactions appended since
// `start`, splitting across line boundaries as the hardware would.
func (g *Generator) merge(out []Transaction, start int, addr uint64, bytes, ai int, acc *compiledAccess) []Transaction {
	for bytes > 0 {
		lineAddr := addr &^ (g.lineBytes - 1)
		off := addr - lineAddr
		span := g.lineBytes - off
		if uint64(bytes) < span {
			span = uint64(bytes)
		}
		firstSec := off / g.sectorBytes
		lastSec := (off + span - 1) / g.sectorBytes
		var mask uint8
		for s := firstSec; s <= lastSec; s++ {
			mask |= 1 << s
		}

		found := false
		for i := start; i < len(out); i++ {
			if out[i].Addr == lineAddr && out[i].Access == ai {
				out[i].Mask |= mask
				found = true
				break
			}
		}
		if !found {
			out = append(out, Transaction{
				Addr:   lineAddr,
				Mask:   mask,
				Access: ai,
				Mode:   acc.mode,
				Alloc:  acc.alloc,
			})
		}
		addr += span
		bytes -= int(span)
	}
	return out
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
