package trace

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/mem/page"
)

// memPhase is one memory phase of a threadblock: a phase with an access
// site at one loop iteration, in the order a threadblock runs them.
type memPhase struct {
	phase kir.Phase
	m     int
}

// memPhases lists threadblock tb's memory phases as the engine runs
// them: the pre-loop phase, each iteration, and the post-loop phase at
// the last iteration, skipping phases without an access site.
func memPhases(g *Generator, tb int) []memPhase {
	iters := g.k.EffItersFor(tb)
	var out []memPhase
	if g.AccessSites(kir.PreLoop) > 0 {
		out = append(out, memPhase{kir.PreLoop, 0})
	}
	if g.AccessSites(kir.InLoop) > 0 {
		for m := range iters {
			out = append(out, memPhase{kir.InLoop, m})
		}
	}
	if g.AccessSites(kir.PostLoop) > 0 {
		out = append(out, memPhase{kir.PostLoop, iters - 1})
	}
	return out
}

// generatorFor allocates w's arrays in a fresh space with pages of
// pageBytes and builds launch l's generator over 128-byte lines, 32-byte
// sectors and 32-thread warps.
func generatorFor(t testing.TB, w *kir.Workload, l int, pageBytes uint64, warpSize int) *Generator {
	t.Helper()
	space := page.NewSpace(pageBytes, 4)
	for _, a := range w.Allocs {
		space.MallocManaged(a.ID, a.Bytes, a.ElemSize)
	}
	g, err := New(w.Launches[l].Kernel, space, w.Tables, 128, 32, warpSize)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestTapeMatchesGenerator publishes every memory phase of every
// threadblock of every workload's launches, at scales 256 and 64, into
// one tape, then replays them all: each replays exactly the words its
// warps' WarpTransactions calls generate, and those calls' instruction
// counts sum to PhaseInstrs, which the engine charges for a replayed
// phase. Replaying only after every phase is published also checks that
// carving a later phase never writes an earlier one's words.
func TestTapeMatchesGenerator(t *testing.T) {
	for _, scale := range []int{256, 64} {
		for _, spec := range kernels.All(scale) {
			w := spec.W
			h := new(Tapes)
			var r Recorder
			var phases int64
			gens := make([]*Generator, len(w.Launches))
			for l := range w.Launches {
				g := generatorFor(t, w, l, 4096, 32)
				gens[l] = g
				tape := h.Tape(g)
				for tb := range g.k.Grid.Count() {
					for i, p := range memPhases(g, tb) {
						if _, ok := tape.Load(tb, i); ok {
							continue // a repeated kernel's launch
						}
						tape.Publish(tb, i, &r, g.Phase(tb, p.m, p.phase, nil))
						phases++
					}
				}
			}
			for l, g := range gens {
				tape := h.Tape(g)
				warps := g.k.WarpsPerTB(32)
				for tb := range g.k.Grid.Count() {
					for i, p := range memPhases(g, tb) {
						what := fmt.Sprintf("%s at scale %d: launch %d tb %d phase %d (%v, m=%d)", w.Name, scale, l, tb, i, p.phase, p.m)
						var want []Transaction
						instrs := 0
						for warp := range warps {
							var n int
							want, n = g.WarpTransactions(tb, warp, p.m, p.phase, want)
							instrs += n
						}
						if instrs != g.PhaseInstrs(p.phase) {
							t.Fatalf("%s: warps issue %d instructions, PhaseInstrs %d", what, instrs, g.PhaseInstrs(p.phase))
						}
						got, ok := tape.Load(tb, i)
						if !ok {
							t.Fatalf("%s: not published", what)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: replays %d words, generated %d, or they differ", what, len(got), len(want))
						}
					}
				}
			}
			if st := h.Stats(); st.Generated != phases {
				t.Errorf("%s at scale %d: %d phases generated, %d published", w.Name, scale, st.Generated, phases)
			}
		}
	}
}

// TestTapeKeysLayout: a generator with the same kernel, geometry and
// array layout finds the tape another one made; another page size, which
// moves the arrays, or another warp size gets a tape of its own.
func TestTapeKeysLayout(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", 256)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.W
	h := new(Tapes)
	tape := h.Tape(generatorFor(t, w, 0, 4096, 32))
	if h.Tape(generatorFor(t, w, 0, 4096, 32)) != tape {
		t.Error("the same layout got another tape")
	}
	if h.Tape(generatorFor(t, w, 0, 8192, 32)) == tape {
		t.Error("arrays on 8 KiB pages replay the tape of arrays on 4 KiB pages")
	}
	if h.Tape(generatorFor(t, w, 0, 4096, 16)) == tape {
		t.Error("16-thread warps replay the tape of 32-thread warps")
	}
	var nilTapes *Tapes
	if nilTapes.Tape(generatorFor(t, w, 0, 4096, 32)) != nil {
		t.Error("a nil holder made a tape")
	}
}

// TestTapeConcurrentPublish has two goroutines generate and publish
// every phase of one launch into one tape at once, each from its own
// Recorder, replaying whatever the other published first. Every phase
// is published once, with the generated words, whichever recorder won
// it. Run it under -race.
func TestTapeConcurrentPublish(t *testing.T) {
	spec, err := kernels.ByName("pagerank", 256)
	if err != nil {
		t.Fatal(err)
	}
	w := spec.W
	h := new(Tapes)
	tape := h.Tape(generatorFor(t, w, 0, 4096, 32))
	var wg sync.WaitGroup
	for range 2 {
		g := generatorFor(t, w, 0, 4096, 32) // a generator is not safe for concurrent use
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r Recorder
			for tb := range g.k.Grid.Count() {
				for i, p := range memPhases(g, tb) {
					if _, ok := tape.Load(tb, i); !ok {
						tape.Publish(tb, i, &r, g.Phase(tb, p.m, p.phase, nil))
					}
				}
			}
		}()
	}
	wg.Wait()
	g := generatorFor(t, w, 0, 4096, 32)
	var words int64
	for tb := range g.k.Grid.Count() {
		for i, p := range memPhases(g, tb) {
			got, ok := tape.Load(tb, i)
			want := g.Phase(tb, p.m, p.phase, nil)
			if !ok || !slices.Equal(got, want) {
				t.Fatalf("tb %d phase %d: published %v, %d words; generated %d", tb, i, ok, len(got), len(want))
			}
			words += int64(len(want))
		}
	}
	if st := h.Stats(); st.Words != words {
		t.Errorf("%d words published, want %d: a phase was published twice", st.Words, words)
	}
}

// TestRecorderCarveUndo: undo returns exactly the last copy's storage,
// so the next copy reuses it, and neither a copy into a new chunk nor
// its undo disturbs what was carved before.
func TestRecorderCarveUndo(t *testing.T) {
	words := func(n int, from Transaction) []Transaction {
		out := make([]Transaction, n)
		for i := range out {
			out[i] = from + Transaction(i)
		}
		return out
	}
	var r Recorder
	a, b, c := words(5, 100), words(7, 200), words(3, 300)
	pa := r.carve(a)
	r.undo(r.carve(b))
	pc := r.carve(c)
	if !slices.Equal(*pa, a) || !slices.Equal(*pc, c) || len(r.words) != len(a)+len(c) || len(r.heads) != 2 {
		t.Fatalf("after an undo: %v %v, %d words and %d headers carved", *pa, *pc, len(r.words), len(r.heads))
	}
	big := words(wordChunk+1, 400) // too long for any chunk's tail: a chunk of its own
	r.undo(r.carve(big))
	pd := r.carve(c)
	if !slices.Equal(*pa, a) || !slices.Equal(*pc, c) || !slices.Equal(*pd, c) || len(r.heads) != 3 {
		t.Fatalf("after undoing a chunk of its own: %v %v %v, %d headers", *pa, *pc, *pd, len(r.heads))
	}
	*pd = append(*pd, 0) // capped: grows into a new array, never into the chunk's tail
	if pe := r.carve(b); !slices.Equal(*pe, b) || !slices.Equal((*pd)[:len(c)], c) {
		t.Fatalf("a carved copy's capacity reaches the next one: %v %v", *pd, *pe)
	}
}
