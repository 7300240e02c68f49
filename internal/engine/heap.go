package engine

import (
	"math"
	"math/bits"
)

// The event queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin &
// Tarjan 1990) over the bit patterns of event times, and it is
// allocation-free in steady state:
//
//  1. Every event is a node in one arena slice, linked into its bucket by
//     an int32 index. Popped nodes go onto a free list and the arena
//     persists across kernel launches, so after warm-up a push reuses a
//     free node and a pop moves no payload.
//  2. The payload is a `runner` interface holding a pointer-shaped value
//     (*txState, *tbExec, or a func). Go stores pointers and funcs
//     directly in interface words, so scheduling never allocates; only
//     constructing a fresh closure would, and the steady-state paths
//     schedule pooled structs instead.
//
// Keys. An event's key is math.Float64bits(t). schedule clamps t to at
// least now, which is never negative, so every key has its sign bit
// clear, and non-negative float64 bit patterns order exactly like their
// values. Popped keys therefore never decrease: the queue is monotone,
// which is all a radix heap needs.
//
// Buckets. The heap remembers last, the key it popped most recently. A
// node with key k sits in bucket bits.Len64(k ^ last): bucket 0 holds
// keys equal to last, and bucket b > 0 holds keys that first differ
// from last at bit b-1. Keys stay below 1<<63, so b ≤ 63 and a uint64
// mask marks the non-empty buckets. When bucket 0 is empty, pop takes
// the lowest non-empty bucket, moves last to that bucket's tracked
// minimum, and relinks the bucket's nodes into lower buckets. Buckets
// above it keep their index, because the new last agrees with the old
// one on every bit above the relinked bucket's. Relinking rewrites only
// int32 links and bucket minima: no payload moves, no pointer is written.
//
// Sentinels. Arena nodes 0 to 63 head the buckets' lists. An empty
// bucket's tail is its own sentinel and its minimum is MaxUint64, so
// link appends to any bucket with the same four stores — the tail's
// link, the tail, the minimum (a min, which compiles to a conditional
// move) and the mask bit — and no branch on whether the bucket was
// empty. Which way that branch went depended on the event mix, so it
// mispredicted; the queue is small enough (see Cost) that mispredicts,
// not cache misses, were what a relink cost.
//
// Order. Every bucket is a FIFO list. Equal keys always share a bucket
// (they have the same xor with last), a relink moves a bucket's nodes
// in list order into buckets that held none of their keys, and a push
// appends. So equal times pop in push order, and pops come out in
// exactly the (time, push order) sequence of the sequence-numbered
// 4-ary heap this replaced, without storing a sequence number. The
// golden run records, matrix256.digest and the perfbench pins did not
// move.
//
// Cost. The 4-ary heap spent its time in hard-to-predict (t, seq)
// compares. Here a push is O(1) and a node is relinked at most 63 times
// over its life, each time into a strictly lower bucket. On perfbench
// fig9-campaign (scale 256, 2-vCPU Xeon, go1.24.0) the queue's share of
// sampled CPU fell from 38% to 23%, and ops_per_s rose from 31.8 to
// 44.6 (medians of 10 alternating 30 s pairs, 10 of 10 won);
// BenchmarkFig9/pagerank and lbm ran 1.35× and 1.41× faster (-count 5
// -cpu 2 medians). A variant that split 16-byte (t, seq) keys from the
// payloads and popped with Floyd's trick made pop about 20% cheaper but
// gained nothing end to end, and per-bucket slices instead of an arena
// allocated three objects per warm launch. Relinking was then the
// queue's cost: link alone took 14.9% of sampled fig9-campaign CPU,
// 7.2 ms per cell, though a pop relinks only 3.8-5.7 nodes on average
// and no cell's queue holds more than 5 120 events (160 KB of arena).
// The sentinels took link to 5.0 ms per cell, and BenchmarkEventHeap
// from 45.7 to 38.5 ns per pop/push pair (medians of 6 alternating
// samples); a radix-16 heap cut relinks per pop from 6.4 to 4.1 but
// gained nothing end to end.

// runner is a scheduled event's payload.
type runner interface {
	run(t float64)
}

// funcEvent adapts an arbitrary callback to the runner interface for cold
// paths (debug and telemetry wrappers, tests). The conversion itself does
// not allocate; building the closure behind it usually does.
type funcEvent func(t float64)

func (f funcEvent) run(t float64) { f(t) }

// node is one queued event: its key, the arena index of the next node in
// its bucket or on the free list (0 ends a list), and its payload.
type node struct {
	key  uint64
	next int32
	r    runner
}

// buckets is the number of radix buckets, and of sentinel nodes.
const buckets = 64

// eventHeap is a monotone radix heap of events keyed by time. Its zero
// value is empty and ready to use. Arena nodes 0 to 63 are the buckets'
// list sentinels and never hold an event: bucket b's list starts at
// nodes[b].next, and an empty bucket's tail is its own sentinel. No
// node links to a sentinel, so 0 can end a list.
type eventHeap struct {
	nodes []node
	free  int32 // head of the free list

	last uint64 // key of the most recent pop; no queued key is smaller
	mask uint64 // bit b set iff bucket b is non-empty

	tail [buckets]int32
	// min is the smallest key in each bucket, MaxUint64 in an empty
	// one. Bucket 0's is never read: its keys all equal last.
	min [buckets]uint64
}

// empty reports whether no event is queued.
func (h *eventHeap) empty() bool { return h.mask == 0 }

// init carves the sentinels and empties every bucket.
func (h *eventHeap) init() {
	h.nodes = make([]node, buckets, 2*buckets)
	for b := range h.tail {
		h.clear(b)
	}
}

// clear empties bucket b without touching the nodes it held.
func (h *eventHeap) clear(b int) {
	h.nodes[b].next = 0
	h.tail[b] = int32(b)
	h.min[b] = math.MaxUint64
}

// link appends node i, which holds key and ends no list (next is 0), to
// the bucket key selects. An empty bucket's tail is its sentinel and its
// minimum is MaxUint64, so linking into it takes the same four stores as
// linking into a full one, and no branch.
func (h *eventHeap) link(i int32, key uint64) {
	b := bits.Len64(key^h.last) & (buckets - 1) // ≤ 63 already; the mask drops bounds checks
	h.nodes[h.tail[b]].next = i
	h.tail[b] = i
	h.min[b] = min(h.min[b], key)
	h.mask |= 1 << b
}

// push queues r at key, which must not be below the last popped key.
func (h *eventHeap) push(key uint64, r runner) {
	i := h.free
	if i != 0 {
		h.free = h.nodes[i].next
	} else {
		if len(h.nodes) == 0 {
			h.init()
		}
		i = int32(len(h.nodes))
		h.nodes = append(h.nodes, node{})
	}
	n := &h.nodes[i]
	n.key, n.next, n.r = key, 0, r
	h.link(i, key)
}

// pop removes the earliest event, first-pushed among equal times, and
// returns its time and payload. The heap must not be empty.
func (h *eventHeap) pop() (float64, runner) {
	if h.mask&1 == 0 {
		b := bits.TrailingZeros64(h.mask) & (buckets - 1)
		h.mask &^= 1 << b
		h.last = h.min[b]
		i := h.nodes[b].next
		h.clear(b)
		for i != 0 {
			n := &h.nodes[i]
			next := n.next
			n.next = 0
			h.link(i, n.key)
			i = next
		}
	}
	s := &h.nodes[0]
	i := s.next
	n := &h.nodes[i]
	s.next = n.next
	if n.next == 0 {
		h.mask &^= 1
		h.tail[0] = 0
	}
	r := n.r
	n.r = nil // drop the payload reference so the GC can reclaim it
	n.next = h.free
	h.free = i
	return math.Float64frombits(h.last), r
}

// reset returns every queued node to the free list without running it.
func (h *eventHeap) reset() {
	for h.mask != 0 {
		b := bits.TrailingZeros64(h.mask)
		h.mask &^= 1 << b
		for i := h.nodes[b].next; i != 0; {
			n := &h.nodes[i]
			next := n.next
			n.r = nil
			n.next = h.free
			h.free = i
			i = next
		}
		h.clear(b)
	}
}

// scheduler wraps the heap with monotonic dispatch.
type scheduler struct {
	events eventHeap
	now    float64

	// Telemetry sampling: sampleFn fires at every multiple of
	// sampleEvery the clock crosses. The hook is a pure observer — it
	// must not schedule events or book resources — so enabling it never
	// changes event order or simulated time.
	sampleFn    func(t float64)
	sampleEvery float64
	nextSample  float64

	// interrupt, when non-nil, aborts drain: it is polled every
	// interruptCheckEvery events (a branch on the hot path, a channel
	// poll only at the mask boundary), so a canceled job releases its
	// worker within a bounded number of events instead of simulating to
	// completion. An uninterrupted run dispatches the exact same event
	// sequence whether the channel is armed or not.
	interrupt <-chan struct{}
	stopped   bool

	// dispatched counts every event run since the scheduler was made,
	// whether or not interrupt is armed: the number of events a job
	// cost.
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

// schedule queues r to run at time t, clamped to now for past times.
// The negated compare also clamps NaN and -0, whose bit patterns would
// otherwise be out-of-order keys. This is the hot-path entry: with a
// pooled payload it allocates nothing.
func (s *scheduler) schedule(t float64, r runner) {
	if !(t > s.now) {
		t = s.now
	}
	s.events.push(math.Float64bits(t), r)
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
	for !s.events.empty() {
		if s.interrupt != nil && s.dispatched&(interruptCheckEvery-1) == 0 {
			select {
			case <-s.interrupt:
				s.stopped = true
				s.events.reset()
				return s.now
			default:
			}
		}
		t, r := s.events.pop()
		for s.sampleFn != nil && s.nextSample <= t {
			s.sampleFn(s.nextSample)
			s.nextSample += s.sampleEvery
		}
		s.now = t
		s.dispatched++
		r.run(t)
	}
	return s.now
}
