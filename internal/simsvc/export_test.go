package simsvc

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Test-only handles for the external exposition golden test: the same
// atomics and methods the pool, cache and server update in
// production, reachable from package simsvc_test (which, unlike the
// in-package tests, may import internal/fleet).

// CounterForTest returns the named pool counter.
func (m *Metrics) CounterForTest(name string) *atomic.Int64 {
	c := map[string]*atomic.Int64{
		"submitted": &m.submitted, "started": &m.started, "completed": &m.completed,
		"failed": &m.failed, "canceled": &m.canceled, "cached": &m.cached,
		"depth": &m.depth, "workers": &m.workers, "evicted": &m.evicted,
		"timeouts": &m.timeouts, "telemetry_spilled": &m.telemetrySpilled,
		"events_subscribers": &m.eventsSubs,
	}[name]
	if c == nil {
		panic("unknown counter " + name)
	}
	return c
}

// JobDoneForTest records one finished job, as a pool worker does.
func (m *Metrics) JobDoneForTest(wall time.Duration, cycles float64) { m.jobDone(wall, cycles) }

// ObserveTelemetryForTest records one telemetry job's peak link
// utilization, as the server does.
func (m *Metrics) ObserveTelemetryForTest(peak float64) { m.observeTelemetry(peak) }

// TrackJobsForTest adds n finished placeholder records to the registry.
func (s *Server) TrackJobsForTest(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < n; i++ {
		s.jobs[fmt.Sprintf("golden-%d", i)] = &jobRecord{status: StatusDone}
	}
}
