package fleet

import (
	"io"
	"sync/atomic"

	"ladm/internal/svcobs"
)

// Attempt outcomes labeling fleet_attempt_seconds{endpoint,outcome}.
// The set is fixed (bounded cardinality): success, error (transport or
// 5xx — retryable), rejected (a deterministic 4xx), job_failed (the
// server worked, the job itself failed), canceled (caller gone — no
// verdict).
const (
	OutcomeSuccess   = "success"
	OutcomeError     = "error"
	OutcomeRejected  = "rejected"
	OutcomeJobFailed = "job_failed"
	OutcomeCanceled  = "canceled"
)

// Metrics is the fleet's counter set.
type Metrics struct {
	attempts atomic.Int64 // remote calls sent
	retries  atomic.Int64 // backoff retries taken

	remoteJobs atomic.Int64 // jobs served by a remote endpoint
	localJobs  atomic.Int64 // jobs that were never remote-eligible
	degraded   atomic.Int64 // jobs that fell back to local after remote failure

	// attemptSeconds is fleet_attempt_seconds{endpoint,outcome}: the
	// wall-clock latency of every remote attempt, per endpoint and
	// verdict — the histogram /fleetz draws its per-endpoint latency
	// column from.
	attemptSeconds *svcobs.HistogramVec

	// reg exposes the counters above and the per-endpoint state of eps.
	reg svcobs.Registry
}

// newMetrics returns an empty counter set whose exposition covers eps.
func newMetrics(eps []*endpoint) *Metrics {
	m := &Metrics{
		attemptSeconds: svcobs.NewHistogramVec("fleet_attempt_seconds",
			"Wall-clock remote attempt latency by endpoint and outcome.",
			[]string{"endpoint", "outcome"}, nil),
	}
	r := &m.reg
	r.Int("fleet_attempts_total", "Remote call attempts.", svcobs.Counter, m.attempts.Load)
	r.Int("fleet_retries_total", "Backoff retries taken.", svcobs.Counter, m.retries.Load)
	r.Int("fleet_remote_jobs_total", "Jobs served by a remote endpoint.", svcobs.Counter, m.remoteJobs.Load)
	r.Int("fleet_local_jobs_total", "Jobs that were never remote-eligible.", svcobs.Counter, m.localJobs.Load)
	r.Int("fleet_degraded_jobs_total", "Jobs that fell back to the local runner after remote failure.", svcobs.Counter, m.degraded.Load)
	perEndpoint := func(name, help, typ string, get func(*endpoint) int64) {
		r.Family(name, help, typ, []string{"endpoint"}, func(emit svcobs.Emit) {
			for _, ep := range eps {
				emit(svcobs.Int(get(ep)), ep.url)
			}
		})
	}
	perEndpoint("fleet_endpoint_attempts_total", "Remote call attempts per endpoint.", svcobs.Counter,
		func(ep *endpoint) int64 { return ep.attempts.Load() })
	perEndpoint("fleet_endpoint_failures_total", "Failed calls per endpoint (canceled calls excluded).", svcobs.Counter,
		func(ep *endpoint) int64 { return ep.failures.Load() })
	perEndpoint("fleet_breaker_state", "Circuit breaker position per endpoint (0 closed, 1 open, 2 half-open).", svcobs.Gauge,
		func(ep *endpoint) int64 { return int64(ep.br.State().gauge()) })
	r.Family("fleet_breaker_transitions_total", "Breaker transitions per endpoint by destination state.", svcobs.Counter,
		[]string{"endpoint", "to"}, func(emit svcobs.Emit) {
			for _, ep := range eps {
				emit(svcobs.Int(ep.toClosed.Load()), ep.url, "closed")
				emit(svcobs.Int(ep.toOpen.Load()), ep.url, "open")
				emit(svcobs.Int(ep.toHalfOpen.Load()), ep.url, "half-open")
			}
		})
	r.HistogramVec(m.attemptSeconds)
	return m
}

// Registry returns the fleet_* metric families.
func (r *Runner) Registry() *svcobs.Registry { return &r.m.reg }

// WriteProm renders the fleet_* metric families in Prometheus text
// format; ladmserve appends them to /metrics and ladmbench prints them
// under -metrics.
func (r *Runner) WriteProm(w io.Writer) { r.m.reg.WriteProm(w) }
