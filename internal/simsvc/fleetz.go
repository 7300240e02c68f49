package simsvc

import (
	"fmt"
	"net/http"
	"time"
)

// FleetAttemptDigest is one (outcome → count, mean latency) row of the
// dispatcher-side fleet_attempt_seconds histogram for a single
// endpoint: the latency column /fleetz shows without anyone parsing
// Prometheus exposition text.
type FleetAttemptDigest struct {
	Outcome     string  `json:"outcome"`
	Count       int64   `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
}

// FleetWorker is one worker's merged view on GET /fleetz: the
// dispatcher's local endpoint state (breaker, attempt digests)
// joined with what the worker reports about itself on /statusz (its
// unlabeled /metrics samples included, under statusz.metrics).
type FleetWorker struct {
	FleetEndpoint
	// Error is why the scrape failed ("" on success) — the worker is
	// still listed from the dispatcher's side, just without self-report.
	Error string `json:"error,omitempty"`
	// Statusz is the worker's own operational snapshot.
	Statusz *Statusz `json:"statusz,omitempty"`
	// Attempts is the dispatcher-side attempt-latency digest for this
	// endpoint, one row per outcome.
	Attempts []FleetAttemptDigest `json:"attempts,omitempty"`
}

// FleetzSummary is the cluster roll-up at the top of /fleetz: fleet
// shape plus the merged load/locality headline numbers from every
// reachable worker.
type FleetzSummary struct {
	Workers      int `json:"workers"`
	Reachable    int `json:"reachable"`
	BreakersOpen int `json:"breakers_open"`
	// Merged across reachable workers:
	QueueDepth    int64   `json:"queue_depth"`
	Running       int64   `json:"running"`
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	CacheHits     int64   `json:"cache_hits"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	StoreHits     int64   `json:"store_hits"`
	StoreMisses   int64   `json:"store_misses"`
	StoreHitRate  float64 `json:"store_hit_rate"`
	TierAnalytic  int64   `json:"tier_analytic"`
	TierEscalated int64   `json:"tier_escalated"`
}

// Fleetz is the full GET /fleetz document — the cluster-level sibling
// of /statusz, built by scraping every worker through the dispatcher.
type Fleetz struct {
	Service string        `json:"service"`
	Time    time.Time     `json:"time"`
	Summary FleetzSummary `json:"summary"`
	Workers []FleetWorker `json:"workers"`
}

// buildFleetz rolls the per-worker views up into the cluster summary.
func buildFleetz(workers []FleetWorker) Fleetz {
	fz := Fleetz{Service: "ladmserve", Time: time.Now(), Workers: workers}
	s := &fz.Summary
	s.Workers = len(workers)
	for _, w := range workers {
		if w.Breaker != "closed" {
			s.BreakersOpen++
		}
		st := w.Statusz
		if st == nil {
			continue
		}
		s.Reachable++
		s.QueueDepth += st.Pool.QueueDepth
		s.Running += st.Pool.Running
		s.Submitted += st.Jobs.Submitted
		s.Completed += st.Jobs.Completed
		s.CacheHits += st.Cache.Hits
		if st.Store != nil {
			s.StoreHits += st.Store.Hits
			s.StoreMisses += st.Store.Misses
		}
		s.TierAnalytic += st.Tier.Analytic
		s.TierEscalated += st.Tier.Escalated
	}
	if served := s.CacheHits + s.Completed; served > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(served)
	}
	if probes := s.StoreHits + s.StoreMisses; probes > 0 {
		s.StoreHitRate = float64(s.StoreHits) / float64(probes)
	}
	return fz
}

// handleFleetz serves the cluster view. 404 without an attached fleet —
// a plain worker has no cluster to aggregate.
func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no fleet attached (start with -remote to serve /fleetz)"))
		return
	}
	writeJSON(w, http.StatusOK, buildFleetz(s.fleet.Cluster(r.Context())))
}
