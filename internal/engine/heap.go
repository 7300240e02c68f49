package engine

// The event core is allocation-free in steady state. Three things make
// that work:
//
//  1. Events are values in one slice-backed 4-ary heap, not *event
//     pointers pushed through container/heap's `any` interface — no
//     per-event allocation, no boxing, and the sift loops inline.
//  2. The payload is a `runner` interface holding a pointer-shaped value
//     (*txState, *tbExec, or a func). Go stores pointers and funcs
//     directly in interface words, so scheduling never allocates; only
//     constructing a fresh closure would, and the steady-state paths
//     schedule pooled structs instead.
//  3. The heap's backing array persists across kernel launches, so after
//     warm-up a push is a bounds-checked append into existing capacity.
//
// Ordering is the strict total order (t, seq): seq is unique, so any
// correct heap pops events in exactly the same sequence as the seed's
// container/heap implementation — swapping the machinery cannot change
// simulation results, which the golden run records pin.

// runner is a scheduled event's payload.
type runner interface {
	run(t float64)
}

// funcEvent adapts an arbitrary callback to the runner interface for cold
// paths (debug and telemetry wrappers, tests). The conversion itself does
// not allocate; building the closure behind it usually does.
type funcEvent func(t float64)

func (f funcEvent) run(t float64) { f(t) }

// event is one scheduled callback of the discrete-event core. Ties on time
// break on sequence number so runs are bit-for-bit deterministic.
type event struct {
	t   float64
	seq uint64
	r   runner
}

// eventHeap is a value-typed 4-ary min-heap ordered on (t, seq). The
// 4-ary layout halves the tree depth of a binary heap and keeps each
// node's children in one-two cache lines. The heap and scheduler take
// ~25% of sampled CPU on the perfbench fig9-campaign workload (2 vCPU);
// no measurement yet compares this layout against a binary one. The
// ordering contract is untouched — (t, seq) is a strict total order, so
// pops come out in exactly the same sequence as any correct heap, which
// the golden run records pin.
type eventHeap []event

// heapArity is the fan-out of the event heap. Power of two so child/parent
// index math compiles to shifts.
const heapArity = 4

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	hh := *h
	n := len(hh) - 1
	top := hh[0]
	hh[0] = hh[n]
	hh[n] = event{} // clear the runner word so the GC can reclaim it
	hh = hh[:n]
	*h = hh
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		least := first
		for c := first + 1; c < last; c++ {
			if hh.less(c, least) {
				least = c
			}
		}
		if !hh.less(least, i) {
			break
		}
		hh[i], hh[least] = hh[least], hh[i]
		i = least
	}
	return top
}

// scheduler wraps the heap with monotonic dispatch.
type scheduler struct {
	events eventHeap
	seq    uint64
	now    float64

	// Telemetry sampling: sampleFn fires at every multiple of
	// sampleEvery the clock crosses. The hook is a pure observer — it
	// must not schedule events or book resources — so enabling it never
	// changes event order or simulated time.
	sampleFn    func(t float64)
	sampleEvery float64
	nextSample  float64

	// interrupt, when non-nil, aborts drain: it is polled every
	// interruptCheckEvery events (a counter increment and branch on the
	// hot path, a channel poll only at the mask boundary), so a canceled
	// job releases its worker within a bounded number of events instead
	// of simulating to completion. An uninterrupted run dispatches the
	// exact same event sequence whether the channel is armed or not.
	interrupt  <-chan struct{}
	stopped    bool
	dispatched uint64
}

// interruptCheckEvery is the event-count granularity of cancellation
// polling. Power of two so the check compiles to a mask.
const interruptCheckEvery = 1 << 16

// startSampling arms the periodic telemetry hook.
func (s *scheduler) startSampling(every float64, fn func(t float64)) {
	s.sampleEvery = every
	s.nextSample = every
	s.sampleFn = fn
}

// schedule queues r to run at time t (clamped to now for past times).
// This is the hot-path entry: with a pooled payload it allocates nothing.
func (s *scheduler) schedule(t float64, r runner) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, r: r})
}

// at schedules fn to run at time t. Cold-path convenience for callbacks
// that are not pooled runners (the closure fn allocates at its creation
// site); steady-state simulation uses schedule instead.
func (s *scheduler) at(t float64, fn func(t float64)) {
	s.schedule(t, funcEvent(fn))
}

// drain runs events until the heap empties, returning the time of the last
// event. With an armed interrupt channel it may instead stop early,
// setting s.stopped and discarding the remaining events.
func (s *scheduler) drain() float64 {
	for len(s.events) > 0 {
		if s.interrupt != nil {
			s.dispatched++
			if s.dispatched&(interruptCheckEvery-1) == 0 {
				select {
				case <-s.interrupt:
					s.stopped = true
					clear(s.events)
					s.events = s.events[:0]
					return s.now
				default:
				}
			}
		}
		ev := s.events.pop()
		for s.sampleFn != nil && s.nextSample <= ev.t {
			s.sampleFn(s.nextSample)
			s.nextSample += s.sampleEvery
		}
		if ev.t > s.now {
			s.now = ev.t
		}
		ev.r.run(s.now)
	}
	return s.now
}
