package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: the tail is the highest percentile the sample supports
// with at least this many observations above it.
const tailBeyond = 10

// tail is a latency summary at the highest percentile the sample
// supports: exactly tailBeyond samples lie above Value.
type tail struct {
	Value   float64
	Pct     float64 // the percentile Value sits at, in (0, 100)
	Samples int     // sample count the percentile was taken over
	Beyond  int     // samples strictly above the percentile's rank
}

func (t tail) String() string {
	return fmt.Sprintf("p%.2f of %d samples (%d beyond)", t.Pct, t.Samples, t.Beyond)
}

// tailOf returns the value at the highest percentile with at least
// tailBeyond samples beyond it. ok is false when the sample is too small
// to have any such percentile (fewer than tailBeyond+1 values).
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{Samples: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := n - tailBeyond // 1-based rank of the reported sample
	return tail{
		Value:   s[rank-1],
		Pct:     100 * float64(rank) / float64(n),
		Samples: n,
		Beyond:  tailBeyond,
	}, true
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 by the same "exclusive" method as
// Python's statistics.quantiles(xs, n=4), so spreads computed here match
// the ones computed from the same values with that function.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	q := func(i int) float64 {
		// Clamp as Python does for tiny samples: j ranges over [1, n-1],
		// and delta is taken after clamping (it may then extrapolate).
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// window is one slice of a timed phase: how many operations completed
// in it and how much process CPU time passed.
type window struct {
	dur time.Duration
	ops int64
	cpu time.Duration
}

// meter cuts a phase into windows. Rates reported as the median over
// windows shrug off the short bursts of host interference a shared
// machine shows, where a whole-phase mean would absorb them.
type meter struct {
	done atomic.Int64 // operations completed so far

	mu   sync.Mutex
	t0   time.Time
	ops0 int64
	cpu0 time.Duration
	wins []window
}

func newMeter() *meter { return &meter{t0: time.Now(), cpu0: processCPU()} }

// add counts n completed operations.
func (m *meter) add(n int) { m.done.Add(int64(n)) }

// mark closes the current window.
func (m *meter) mark() {
	now, ops, cpu := time.Now(), m.done.Load(), processCPU()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.wins = append(m.wins, window{dur: now.Sub(m.t0), ops: ops - m.ops0, cpu: cpu - m.cpu0})
	m.t0, m.ops0, m.cpu0 = now, ops, cpu
}

// every closes a window each d until the returned stop is called; the
// partial window in progress at stop is dropped.
func (m *meter) every(d time.Duration) (stop func()) {
	m.mu.Lock()
	m.t0, m.ops0, m.cpu0 = time.Now(), m.done.Load(), processCPU()
	m.mu.Unlock()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.mark()
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// windows returns the closed windows that completed work.
func (m *meter) windows() []window {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []window
	for _, w := range m.wins {
		if w.ops > 0 && w.dur > 0 {
			out = append(out, w)
		}
	}
	return out
}

// windowRates returns the median over windows of operations per second
// and of CPU milliseconds per operation.
func windowRates(ws []window) (opsPerS, cpuMsPerOp float64) {
	var rates, cpus []float64
	for _, w := range ws {
		rates = append(rates, float64(w.ops)/w.dur.Seconds())
		cpus = append(cpus, float64(w.cpu.Nanoseconds())/1e6/float64(w.ops))
	}
	return median(rates), median(cpus)
}
