package engine

import "testing"

// TestDrainInterruptStopsEarly arms the scheduler's interrupt with an
// already-closed channel and checks that drain aborts at the polling
// boundary instead of dispatching the whole heap.
func TestDrainInterruptStopsEarly(t *testing.T) {
	var s scheduler
	ch := make(chan struct{})
	close(ch)
	s.interrupt = ch
	total := interruptCheckEvery + 100
	dispatched := 0
	for i := 0; i < total; i++ {
		s.at(float64(i), func(float64) { dispatched++ })
	}
	s.drain()
	if !s.stopped {
		t.Fatal("drain did not stop on a closed interrupt channel")
	}
	if dispatched >= total {
		t.Fatalf("dispatched all %d events despite the interrupt", total)
	}
	if dispatched > interruptCheckEvery {
		t.Errorf("dispatched %d events, want at most the polling granularity %d",
			dispatched, interruptCheckEvery)
	}
	if err := s.events.books(); err != nil {
		t.Errorf("after an interrupted drain: %v", err)
	}
}

// TestDrainInterruptArmedButQuiet: an armed-but-silent channel must not
// change what gets dispatched — cancellation support cannot perturb
// deterministic runs.
func TestDrainInterruptArmedButQuiet(t *testing.T) {
	run := func(armed bool) []int {
		var s scheduler
		if armed {
			s.interrupt = make(chan struct{})
		}
		var order []int
		total := interruptCheckEvery + 100
		for i := 0; i < total; i++ {
			i := i
			s.at(float64(total-i), func(float64) { order = append(order, i) })
		}
		s.drain()
		if s.stopped {
			t.Fatal("quiet interrupt channel stopped the drain")
		}
		return order
	}
	plain, armed := run(false), run(true)
	if len(plain) != len(armed) {
		t.Fatalf("dispatch counts differ: %d vs %d", len(plain), len(armed))
	}
	for i := range plain {
		if plain[i] != armed[i] {
			t.Fatalf("dispatch order diverges at %d", i)
		}
	}
}
