package fleet

import (
	"sync"
	"time"
)

// breakerState is one circuit-breaker position.
type breakerState int32

const (
	// breakerClosed: traffic flows; consecutive failures are counted.
	breakerClosed breakerState = iota
	// breakerOpen: traffic is refused until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: exactly one probe request is admitted; its
	// verdict closes or re-opens the circuit.
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// gauge renders the state for the fleet_breaker_state metric
// (0 closed, 1 open, 2 half-open).
func (s breakerState) gauge() int { return int(s) }

// breaker is a per-endpoint circuit breaker: closed → open after
// `threshold` consecutive failures, open → half-open after `cooldown`,
// half-open → closed on a successful probe (→ open again on a failed
// one). Callers reserve admission with Allow, then report exactly one
// of Success, Failure, or Release (for calls canceled without a
// verdict — a caller giving up must neither trip nor heal the circuit).
type breaker struct {
	threshold int
	cooldown  time.Duration
	// onTransition fires under the mutex on every state change; it must
	// only touch atomics and logging, never the breaker itself.
	onTransition func(from, to breakerState)

	mu        sync.Mutex
	state     breakerState
	since     time.Time // when the current state was entered
	failures  int
	openUntil time.Time
	probing   bool
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(from, to breakerState)) *breaker {
	return &breaker{
		threshold: threshold, cooldown: cooldown,
		since: time.Now(), onTransition: onTransition,
	}
}

// Allow reports whether a request may be sent now. In the open state it
// admits nothing until the cooldown deadline, then transitions to
// half-open and admits a single probe; in half-open it admits only that
// probe until a verdict (or Release) arrives.
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.transition(breakerHalfOpen)
		b.probing = true
		return true
	case breakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful call: the circuit closes and the
// consecutive-failure count resets.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state != breakerClosed {
		b.transition(breakerClosed)
	}
}

// Failure records a failed call at `now`.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: back to open for a fresh cooldown.
		b.probing = false
		b.openUntil = now.Add(b.cooldown)
		b.transition(breakerOpen)
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openUntil = now.Add(b.cooldown)
			b.transition(breakerOpen)
		}
	case breakerOpen:
		// Calls admitted before the trip can still fail; keep the
		// cooldown fresh so the probe waits out a full quiet period.
		b.openUntil = now.Add(b.cooldown)
	}
}

// Release abandons an admission that will never produce a verdict
// (context canceled mid-call). It frees a reserved half-open probe slot
// so the circuit cannot wedge waiting for a probe that died.
func (b *breaker) Release() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// State returns the current position.
func (b *breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// StateSince returns the current position and when it was entered —
// /statusz shows the age so a stuck-open breaker is visible at a
// glance.
func (b *breaker) StateSince() (breakerState, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.since
}

// transition requires b.mu.
func (b *breaker) transition(to breakerState) {
	from := b.state
	b.state = to
	if from != to {
		b.since = time.Now()
		if b.onTransition != nil {
			b.onTransition(from, to)
		}
	}
}
