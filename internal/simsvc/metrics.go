package simsvc

import (
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/simstore"
	"ladm/internal/svcobs"
)

// Metrics aggregates the pool's and cache's observability counters. All
// methods are safe for concurrent use; a zero value is not usable — call
// NewMetrics.
type Metrics struct {
	submitted atomic.Int64 // jobs accepted into the queue
	started   atomic.Int64 // jobs a worker began executing
	completed atomic.Int64 // jobs that produced a record
	failed    atomic.Int64 // jobs that returned an error or panicked
	canceled  atomic.Int64 // jobs whose context expired before running
	cached    atomic.Int64 // requests served from the result cache
	depth     atomic.Int64 // current queue depth (gauge)
	workers   atomic.Int64 // pool size (gauge)
	evicted   atomic.Int64 // job records dropped by registry retention
	telemetry atomic.Int64 // jobs executed with telemetry collection
	timeouts  atomic.Int64 // jobs that failed on a per-job deadline

	telemetrySpilled atomic.Int64 // telemetry records persisted to the store
	eventsSubs       atomic.Int64 // live SSE subscribers (gauge)

	tierAnalytic  atomic.Int64 // jobs answered by the closed-form model
	tierEscalated atomic.Int64 // jobs escalated to the event engine

	// peakLink holds the float64 bits of the highest peak inter-GPU
	// link utilization any telemetry job has reported (gauge).
	peakLink atomic.Uint64

	// wall is the per-job wall-time distribution, exposed as the
	// simsvc_job_wall_seconds histogram (its _sum/_count series carry
	// the names the old hand-rolled summary used, so dashboards built
	// on rate(sum)/rate(count) survive the upgrade unchanged).
	wall *svcobs.Histogram

	mu          sync.Mutex
	wallMax     float64 // longest single job
	simCycles   float64 // summed simulated cycles of completed jobs
	tierReasons map[string]int64

	// reg exposes every field above.
	reg svcobs.Registry
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{
		wall:        svcobs.NewHistogram(nil),
		tierReasons: map[string]int64{},
	}
	m.register()
	return m
}

func (m *Metrics) jobDone(wall time.Duration, cycles float64) {
	secs := wall.Seconds()
	m.wall.Observe(secs)
	m.mu.Lock()
	if secs > m.wallMax {
		m.wallMax = secs
	}
	m.simCycles += cycles
	m.mu.Unlock()
}

// observeTelemetry folds one telemetry job's peak link utilization into
// the high-water gauge.
func (m *Metrics) observeTelemetry(peakLinkUtil float64) {
	m.telemetry.Add(1)
	for {
		old := m.peakLink.Load()
		if peakLinkUtil <= math.Float64frombits(old) {
			return
		}
		if m.peakLink.CompareAndSwap(old, math.Float64bits(peakLinkUtil)) {
			return
		}
	}
}

// ObserveTierDecision records one fidelity-tier serving decision; it is
// the shape of analytic.Runner's OnDecision hook. Any job the model
// answers counts as analytic; everything the oracle hands to the event
// engine counts as an escalation, labeled by its bounded reason class
// in simsvc_tier_escalations_total{reason}.
func (m *Metrics) ObserveTierDecision(tier string, d analytic.Decision) {
	if tier == analytic.TierAnalytic {
		m.tierAnalytic.Add(1)
		return
	}
	m.tierEscalated.Add(1)
	reason := d.Class
	if reason == "" {
		reason = "unknown"
	}
	m.mu.Lock()
	m.tierReasons[reason]++
	m.mu.Unlock()
}

// tierReasonCounts copies the escalation counts by reason class.
func (m *Metrics) tierReasonCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.tierReasons))
	for k, v := range m.tierReasons {
		out[k] = v
	}
	return out
}

// wallTotals returns the longest single job and the summed simulated
// cycles.
func (m *Metrics) wallTotals() (wallMax, cycles float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wallMax, m.simCycles
}

// register declares every pool metric family, in /metrics order.
func (m *Metrics) register() {
	r := &m.reg
	r.Int("simsvc_jobs_submitted_total", "Jobs accepted into the queue.", svcobs.Counter, m.submitted.Load)
	r.Int("simsvc_jobs_started_total", "Jobs a worker began executing.", svcobs.Counter, m.started.Load)
	r.Int("simsvc_jobs_completed_total", "Jobs that produced a record.", svcobs.Counter, m.completed.Load)
	r.Int("simsvc_jobs_failed_total", "Jobs that errored or panicked.", svcobs.Counter, m.failed.Load)
	r.Int("simsvc_jobs_canceled_total", "Jobs canceled before execution.", svcobs.Counter, m.canceled.Load)
	r.Int("simsvc_jobs_cached_total", "Requests served from the result cache.", svcobs.Counter, m.cached.Load)
	// The same counter under the name operations dashboards alert on:
	// every hit, whether from memory or the durable store.
	r.Int("simsvc_cache_hits_total", "Requests served from the result cache (memory or store).", svcobs.Counter, m.cached.Load)
	r.Int("simsvc_jobs_timeout_total", "Jobs that failed on the per-job deadline.", svcobs.Counter, m.timeouts.Load)
	r.Int("simsvc_jobs_evicted_total", "Job records dropped by registry retention.", svcobs.Counter, m.evicted.Load)
	r.Int("simsvc_telemetry_jobs_total", "Jobs executed with telemetry collection.", svcobs.Counter, m.telemetry.Load)
	r.Int("simsvc_telemetry_spilled_total", "Telemetry records persisted to the durable store.", svcobs.Counter, m.telemetrySpilled.Load)
	r.Family("simsvc_tier_jobs_total", "Jobs by the fidelity tier that served them.", svcobs.Counter,
		[]string{"tier", "confidence"}, func(emit svcobs.Emit) {
			emit(svcobs.Int(m.tierAnalytic.Load()), analytic.TierAnalytic, analytic.ConfidenceHigh)
			emit(svcobs.Int(m.tierEscalated.Load()), analytic.TierEvent, analytic.ConfidenceEscalate)
		})
	// Escalations are labeled by their bounded reason class, alongside
	// the unlabeled total every existing dashboard already scrapes.
	r.Family("simsvc_tier_escalations_total", "Jobs the analytic tier escalated to the event engine.", svcobs.Counter,
		[]string{"reason"}, func(emit svcobs.Emit) {
			emit(svcobs.Int(m.tierEscalated.Load()))
			counts := m.tierReasonCounts()
			reasons := make([]string, 0, len(counts))
			for r := range counts {
				reasons = append(reasons, r)
			}
			sort.Strings(reasons)
			for _, r := range reasons {
				emit(svcobs.Int(counts[r]), r)
			}
		})
	r.Int("simsvc_events_subscribers", "Live job-event stream subscribers.", svcobs.Gauge, m.eventsSubs.Load)
	r.Int("simsvc_queue_depth", "Jobs currently queued.", svcobs.Gauge, m.depth.Load)
	r.Int("simsvc_workers", "Worker slots in the pool.", svcobs.Gauge, m.workers.Load)
	r.Float("simsvc_telemetry_peak_link_util", "Highest peak inter-GPU link utilization any telemetry job reported.", svcobs.Gauge,
		func() float64 { return math.Float64frombits(m.peakLink.Load()) })
	r.Histogram("simsvc_job_wall_seconds", "Per-job wall time.", m.wall)
	r.Float("simsvc_job_wall_seconds_max", "Longest single job.", svcobs.Gauge,
		func() float64 { wallMax, _ := m.wallTotals(); return wallMax })
	r.Float("simsvc_simulated_cycles_total", "Simulated GPU cycles across completed jobs.", svcobs.Counter,
		func() float64 { _, cycles := m.wallTotals(); return cycles })
	r.Float("simsvc_simulated_cycles_per_second", "Simulated cycles per wall-second of execution.", svcobs.Gauge,
		func() float64 {
			wall := m.wall.Sum()
			if wall <= 0 {
				return 0
			}
			_, cycles := m.wallTotals()
			return cycles / wall
		})
}

// Registry returns the pool's metric families.
func (m *Metrics) Registry() *svcobs.Registry { return &m.reg }

// WriteProm renders the pool's metrics in Prometheus text exposition
// format.
func (m *Metrics) WriteProm(w io.Writer) { m.reg.WriteProm(w) }

// registerStore declares the durable result store's families, read from
// its Stats at scrape time.
func registerStore(r *svcobs.Registry, st *simstore.Store) {
	stat := func(name, help, typ string, get func(simstore.Stats) int64) {
		r.Int(name, help, typ, func() int64 { return get(st.Stats()) })
	}
	stat("simsvc_store_hits_total", "Records served from the durable store.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Hits })
	stat("simsvc_store_misses_total", "Store lookups that found nothing.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Misses })
	stat("simsvc_store_writes_total", "Records durably written.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Writes })
	stat("simsvc_store_corrupt_total", "Records quarantined after failing validation.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Corrupt })
	stat("simsvc_store_evicted_total", "Records evicted by the size cap.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Evicted })
	stat("simsvc_store_retries_total", "Backed-off retries of transient store I/O errors.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Retries })
	stat("simsvc_store_dropped_writes_total", "Writes discarded while the store was degraded.", svcobs.Counter, func(s simstore.Stats) int64 { return s.Dropped })
	stat("simsvc_store_records", "Live records in the store.", svcobs.Gauge, func(s simstore.Stats) int64 { return int64(s.Records) })
	stat("simsvc_store_bytes", "Summed size of live records.", svcobs.Gauge, func(s simstore.Stats) int64 { return s.Bytes })
	stat("simsvc_store_healthy", "1 while the store is operating, 0 once degraded to store-less mode.", svcobs.Gauge, func(s simstore.Stats) int64 {
		if s.Healthy {
			return 1
		}
		return 0
	})
}
