package simsvc

import (
	"net/http"
	"time"

	"ladm/internal/svcobs"
)

// statuszSlowest bounds the slowest-recent-jobs list on /statusz.
const statuszSlowest = 10

// StatuszPool is the worker-pool section of /statusz.
type StatuszPool struct {
	Workers             int64   `json:"workers"`
	Running             int64   `json:"running"`
	QueueDepth          int64   `json:"queue_depth"`
	QueueCap            int     `json:"queue_cap"`
	OldestQueuedSeconds float64 `json:"oldest_queued_seconds"`
}

// StatuszJobs is the job-registry section of /statusz.
type StatuszJobs struct {
	Submitted int64 `json:"submitted"`
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Timeouts  int64 `json:"timeouts"`
	Evicted   int64 `json:"evicted"`
	Tracked   int   `json:"tracked"`
}

// StatuszCache is the result-cache section of /statusz.
type StatuszCache struct {
	Entries int   `json:"entries"`
	Hits    int64 `json:"hits"`
	// HitRate is hits / (hits + completed jobs); 0 until traffic arrives.
	HitRate float64 `json:"hit_rate"`
}

// StatuszStore is the durable-store section of /statusz (absent when no
// store is attached).
type StatuszStore struct {
	Healthy bool  `json:"healthy"`
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Writes  int64 `json:"writes"`
}

// StatuszTier is the fidelity-tier section of /statusz.
type StatuszTier struct {
	Analytic  int64            `json:"analytic"`
	Escalated int64            `json:"escalated"`
	Reasons   map[string]int64 `json:"reasons,omitempty"`
}

// Statusz is the full GET /statusz document: a one-page JSON snapshot
// of the service plane.
type Statusz struct {
	Service       string                  `json:"service"`
	Time          time.Time               `json:"time"`
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Pool          StatuszPool             `json:"pool"`
	Jobs          StatuszJobs             `json:"jobs"`
	Cache         StatuszCache            `json:"cache"`
	Store         *StatuszStore           `json:"store,omitempty"`
	Tier          StatuszTier             `json:"tier"`
	Fleet         []FleetEndpoint         `json:"fleet,omitempty"`
	InFlight      []svcobs.TimelineStatus `json:"in_flight"`
	Slowest       []svcobs.JobSummary     `json:"slowest"`
	// Metrics holds every unlabeled sample of /metrics (plain counters
	// and gauges, histogram _sum/_count), keyed by series name.
	Metrics map[string]float64 `json:"metrics"`
}

// Statusz builds the current operational snapshot.
func (s *Server) Statusz() Statusz {
	m := s.pool.Metrics()
	started, completed, failed := m.started.Load(), m.completed.Load(), m.failed.Load()
	cached := m.cached.Load()
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	st := Statusz{
		Service:       "ladmserve",
		Time:          time.Now(),
		UptimeSeconds: s.obs.UptimeSeconds(),
		Pool: StatuszPool{
			Workers:             m.workers.Load(),
			Running:             max(started-completed-failed, 0),
			QueueDepth:          m.depth.Load(),
			QueueCap:            s.pool.QueueCap(),
			OldestQueuedSeconds: s.obs.OldestQueuedSeconds(),
		},
		Jobs: StatuszJobs{
			Submitted: m.submitted.Load(),
			Started:   started,
			Completed: completed,
			Failed:    failed,
			Canceled:  m.canceled.Load(),
			Timeouts:  m.timeouts.Load(),
			Evicted:   m.evicted.Load(),
			Tracked:   tracked,
		},
		Cache: StatuszCache{
			Entries: s.cache.Len(),
			Hits:    cached,
		},
		Tier: StatuszTier{
			Analytic:  m.tierAnalytic.Load(),
			Escalated: m.tierEscalated.Load(),
			Reasons:   m.tierReasonCounts(),
		},
		InFlight: s.obs.InFlight(),
		Slowest:  s.obs.Slowest(statuszSlowest),
		Metrics:  map[string]float64{},
	}
	if served := cached + completed; served > 0 {
		st.Cache.HitRate = float64(cached) / float64(served)
	}
	if s.store != nil {
		ss := s.store.Store.Stats()
		st.Store = &StatuszStore{
			Healthy: ss.Healthy,
			Records: ss.Records,
			Bytes:   ss.Bytes,
			Hits:    ss.Hits,
			Misses:  ss.Misses,
			Writes:  ss.Writes,
		}
	}
	if s.fleet != nil {
		st.Fleet = s.fleet.Endpoints()
	}
	for _, reg := range s.registries() {
		reg.Scalars(st.Metrics)
	}
	return st
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statusz())
}

// handleServiceTrace serves the wall-clock service trace: one span per
// job lifecycle stage, one track per pool worker, in Chrome trace-event
// JSON (open in Perfetto or chrome://tracing). This is the service-plane
// sibling of the per-job simulated-time trace at
// GET /jobs/{id}/telemetry?view=trace.
func (s *Server) handleServiceTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="servicetrace.json"`)
	s.obs.Tracer.WriteTrace(w)
}
