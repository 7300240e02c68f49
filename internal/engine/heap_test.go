package engine

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
)

// heapTag is a test payload naming the push that queued it.
type heapTag int

func (heapTag) run(float64) {}

// runHeapProgram interprets prog as a sequence of operations on an
// eventHeap and checks every pop against a reference that orders events
// by (time, push order). Each operation byte selects:
//
//   - push (most bytes): the next byte picks a delta above the last
//     popped time — zero (a tie with the heap's floor), an integer grid
//     step, a fraction, or a magnitude up to about 1e12;
//   - pop, when anything is queued;
//   - drain to empty, or an interrupt-style reset that discards the
//     queue, after which the books must balance (see books in matrix_test.go).
//
// Pushes on the integer grid collide often, so FIFO order among equal
// times is exercised throughout.
func runHeapProgram(t *testing.T, prog []byte) {
	t.Helper()
	type ref struct {
		t  float64
		id int
	}
	var (
		h       eventHeap
		pending []ref
		floor   float64 // time of the last pop: no push may go below it
		pushes  int
	)
	popOne := func() {
		best := 0
		for i, p := range pending[1:] {
			b := pending[best]
			if p.t < b.t || (p.t == b.t && p.id < b.id) {
				best = i + 1
			}
		}
		want := pending[best]
		pending = append(pending[:best], pending[best+1:]...)
		gotT, r := h.pop()
		got := int(r.(heapTag))
		if gotT != want.t || got != want.id {
			t.Fatalf("pop = (%v, push %d), want (%v, push %d)", gotT, got, want.t, want.id)
		}
		floor = gotT
	}
	for pc := 0; pc < len(prog); pc++ {
		op := prog[pc]
		switch {
		case op < 176:
			var arg byte
			if pc+1 < len(prog) {
				pc++
				arg = prog[pc]
			}
			var delta float64
			switch arg >> 6 {
			case 0:
			case 1:
				delta = float64(arg & 7)
			case 2:
				delta = float64(arg&63) / 13
			default:
				delta = float64(arg&63) * 1.6e10
			}
			at := floor + delta
			h.push(math.Float64bits(at), heapTag(pushes))
			pending = append(pending, ref{at, pushes})
			pushes++
		case op < 254:
			if len(pending) > 0 {
				popOne()
			}
		case op == 254:
			for len(pending) > 0 {
				popOne()
			}
			if err := h.books(); err != nil {
				t.Fatalf("after drain: %v", err)
			}
		default:
			h.reset()
			pending = pending[:0]
			if err := h.books(); err != nil {
				t.Fatalf("after reset: %v", err)
			}
		}
		if h.empty() != (len(pending) == 0) {
			t.Fatalf("empty() = %v with %d events pending", h.empty(), len(pending))
		}
	}
	for len(pending) > 0 {
		popOne()
	}
	if err := h.books(); err != nil {
		t.Fatalf("at end: %v", err)
	}
}

// TestEventHeapMatchesReference runs random programs through
// runHeapProgram: every pop must be the least (time, push order) event
// queued, which is the order the simulation's determinism rests on.
func TestEventHeapMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		prog := make([]byte, 200+r.Intn(2000))
		r.Read(prog)
		runHeapProgram(t, prog)
	}
}

// FuzzEventHeap explores runHeapProgram's operation space.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 200, 200})                      // ties at 0
	f.Add([]byte{0, 0x47, 0, 0x41, 0, 0x47, 200, 0, 0, 254}) // grid ties
	f.Add([]byte{0, 0xbf, 0, 0xff, 0, 0x81, 200, 0, 0x40, 255, 0, 0xc1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runHeapProgram(t, prog)
	})
}

// TestEventHeapOrdering drives the heap with adversarial push/pop
// interleavings — duplicate times, bursts on a small integer grid, random
// storms — and checks that a fresh heap given every pushed event pops them
// in the (time, push order) total order. The first heap only has to accept
// the interleaving; pushes stay at or above its last pop, as schedule
// guarantees.
func TestEventHeapOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	type ref struct {
		t  float64
		id int
	}
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		var floor float64
		var pending []ref
		popped := 0
		steps := 200 + r.Intn(800)
		for s := 0; s < steps; s++ {
			if h.empty() || r.Intn(3) > 0 {
				// Times cluster on a small integer grid to force ties, the
				// case where push order carries the determinism story.
				ev := ref{floor + float64(r.Intn(16)), len(pending)}
				h.push(math.Float64bits(ev.t), heapTag(ev.id))
				pending = append(pending, ev)
			} else {
				floor, _ = h.pop()
				popped++
			}
		}
		for !h.empty() {
			h.pop()
			popped++
		}
		if popped != len(pending) {
			t.Fatalf("trial %d: pushed %d, popped %d", trial, len(pending), popped)
		}
		var h2 eventHeap
		for _, ev := range pending {
			h2.push(math.Float64bits(ev.t), heapTag(ev.id))
		}
		want := append([]ref(nil), pending...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].t < want[j].t })
		for i, w := range want {
			gotT, r := h2.pop()
			if got := int(r.(heapTag)); gotT != w.t || got != w.id {
				t.Fatalf("trial %d: pop %d = (%v, push %d), want (%v, push %d)",
					trial, i, gotT, got, w.t, w.id)
			}
		}
		if !h2.empty() {
			t.Fatalf("trial %d: heap not empty after %d pops", trial, len(want))
		}
	}
}

// TestEventHeapInterleavedMonotonic checks the drain-order property under
// interleaved push/pop: a popped event is never ordered after an event
// that was still queued when it was popped.
func TestEventHeapInterleavedMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var h eventHeap
	var floor float64
	pushes := 0
	for s := 0; s < 5000; s++ {
		if h.empty() || r.Intn(2) == 0 {
			at := floor + float64(r.Intn(32))
			h.push(math.Float64bits(at), heapTag(pushes))
			pushes++
			continue
		}
		gotT, gr := h.pop()
		got := int(gr.(heapTag))
		floor = gotT
		for m := h.mask; m != 0; m &= m - 1 {
			for i := h.nodes[bits.TrailingZeros64(m)].next; i != 0; i = h.nodes[i].next {
				n := &h.nodes[i]
				qt, qid := math.Float64frombits(n.key), int(n.r.(heapTag))
				if qt < gotT || (qt == gotT && qid < got) {
					t.Fatalf("pop (%v, push %d) left a smaller event (%v, push %d) behind",
						gotT, got, qt, qid)
				}
			}
		}
	}
}

// TestScheduleClampsToNow schedules at -0, NaN, now, a past time, and a
// burst of equal times from inside an event at t=3. Every clamped event
// must run at now, in push order, before the later one.
func TestScheduleClampsToNow(t *testing.T) {
	var s scheduler
	var order []int
	var times []float64
	rec := func(id int) func(float64) {
		return func(at float64) {
			order = append(order, id)
			times = append(times, at)
		}
	}
	// At now=0, -0 and NaN must become 0 and keep their push order.
	s.at(math.Copysign(0, -1), rec(0))
	s.at(math.NaN(), rec(1))
	s.at(3, func(float64) {
		s.at(3.5, rec(9))
		s.at(math.Copysign(0, -1), rec(2))
		s.at(math.NaN(), rec(3))
		s.at(s.now, rec(4))
		s.at(1, rec(5))
		for id := 6; id < 9; id++ {
			s.at(3, rec(id))
		}
	})
	if end := s.drain(); end != 3.5 {
		t.Fatalf("drain ended at %v, want 3.5", end)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	wantT := []float64{0, 0, 3, 3, 3, 3, 3, 3, 3, 3.5}
	if len(order) != len(want) {
		t.Fatalf("dispatched %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] || times[i] != wantT[i] || math.Signbit(times[i]) {
			t.Fatalf("dispatch %d = (event %d at %v), want (event %d at %v); order %v",
				i, order[i], times[i], want[i], wantT[i], order)
		}
	}
}

// BenchmarkEventHeap runs the queue in steady state at the depth of a
// busy engine, about 5 000 events: each pop pushes one event a delta
// after the popped time, drawn the way the engine's deltas fall — ties,
// +28 and +120 cycle hops, and fractional serve times. One op is
// heapBenchEvents pop/push pairs, so that even a single iteration times
// milliseconds; ns/event is the cost of one pair.
func BenchmarkEventHeap(b *testing.B) {
	const depth, heapBenchEvents = 5000, 1 << 16
	r := rand.New(rand.NewSource(5))
	var deltas [1024]float64
	for i := range deltas {
		switch p := r.Intn(20); {
		case p < 6:
		case p < 11:
			deltas[i] = 28
		case p < 15:
			deltas[i] = 120
		default:
			deltas[i] = float64(r.Intn(512)) / 8
		}
	}
	var h eventHeap
	x := &tbExec{} // a pointer-shaped payload, as the engine queues
	for i := 0; i < depth; i++ {
		h.push(math.Float64bits(deltas[i%len(deltas)]*float64(i%7)), x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for j := 0; j < heapBenchEvents; j++ {
			t, _ := h.pop()
			h.push(math.Float64bits(t+deltas[j%len(deltas)]), x)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*heapBenchEvents), "ns/event")
}
