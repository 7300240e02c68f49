package simsvc

import (
	"fmt"
	"html/template"
	"net/http"
	"sort"
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

// Statusz is the full GET /statusz document: a one-page operational
// snapshot of the service plane, as JSON by default or HTML with
// ?format=html.
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

var statuszTmpl = template.Must(template.New("statusz").Funcs(template.FuncMap{
	"secs":   func(v float64) string { return fmt.Sprintf("%.3fs", v) },
	"mulpct": func(v float64) float64 { return v * 100 },
	"stages": func(m map[string]float64) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := ""
		for i, k := range keys {
			if i > 0 {
				out += " "
			}
			out += fmt.Sprintf("%s=%.3fs", k, m[k])
		}
		return out
	},
}).Parse(`<!DOCTYPE html>
<html><head><title>{{.Service}} statusz</title>
<style>
body{font-family:monospace;margin:2em;background:#fafafa;color:#222}
h1{font-size:1.3em} h2{font-size:1.05em;margin-top:1.4em}
table{border-collapse:collapse} td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}
.warn{color:#a40}
</style></head><body>
<h1>{{.Service}} — uptime {{secs .UptimeSeconds}}</h1>
<h2>Pool</h2>
<table>
<tr><th>workers</th><th>running</th><th>queue</th><th>oldest queued</th></tr>
<tr><td>{{.Pool.Workers}}</td><td>{{.Pool.Running}}</td>
<td>{{.Pool.QueueDepth}}/{{.Pool.QueueCap}}</td>
<td{{if gt .Pool.OldestQueuedSeconds 1.0}} class="warn"{{end}}>{{secs .Pool.OldestQueuedSeconds}}</td></tr>
</table>
<h2>Jobs</h2>
<table>
<tr><th>submitted</th><th>started</th><th>completed</th><th>failed</th><th>canceled</th><th>timeouts</th><th>evicted</th><th>tracked</th></tr>
<tr><td>{{.Jobs.Submitted}}</td><td>{{.Jobs.Started}}</td><td>{{.Jobs.Completed}}</td>
<td>{{.Jobs.Failed}}</td><td>{{.Jobs.Canceled}}</td><td>{{.Jobs.Timeouts}}</td>
<td>{{.Jobs.Evicted}}</td><td>{{.Jobs.Tracked}}</td></tr>
</table>
<h2>Cache{{if .Store}} / store{{end}}</h2>
<table>
<tr><th>entries</th><th>hits</th><th>hit rate</th>{{if .Store}}<th>store</th><th>records</th><th>store hits</th><th>writes</th>{{end}}</tr>
<tr><td>{{.Cache.Entries}}</td><td>{{.Cache.Hits}}</td><td>{{printf "%.1f%%" (mulpct .Cache.HitRate)}}</td>
{{if .Store}}<td>{{if .Store.Healthy}}healthy{{else}}degraded{{end}}</td>
<td>{{.Store.Records}}</td><td>{{.Store.Hits}}</td><td>{{.Store.Writes}}</td>{{end}}</tr>
</table>
<h2>Fidelity tiers</h2>
<table>
<tr><th>analytic</th><th>escalated</th><th>reasons</th></tr>
<tr><td>{{.Tier.Analytic}}</td><td>{{.Tier.Escalated}}</td><td>{{range $r, $n := .Tier.Reasons}}{{$r}}={{$n}} {{end}}</td></tr>
</table>
{{if .Fleet}}<h2>Fleet endpoints</h2>
<table>
<tr><th>endpoint</th><th>breaker</th><th>for</th><th>attempts</th><th>failures</th><th>successes</th><th>in flight</th></tr>
{{range .Fleet}}<tr><td>{{.URL}}</td>
<td{{if ne .Breaker "closed"}} class="warn"{{end}}>{{.Breaker}}</td>
<td>{{secs .BreakerSeconds}}</td>
<td>{{.Attempts}}</td><td>{{.Failures}}</td><td>{{.Successes}}</td><td>{{.InFlight}}</td></tr>
{{end}}</table>
{{end}}<h2>In flight ({{len .InFlight}})</h2>
<table>
<tr><th>job</th><th>request id</th><th>stage</th><th>age</th><th>in stage</th><th>worker</th></tr>
{{range .InFlight}}<tr><td>{{.Name}}</td><td>{{.RequestID}}</td><td>{{.Stage}}</td>
<td>{{secs .AgeSeconds}}</td><td>{{secs .StageSeconds}}</td><td>{{.Worker}}</td></tr>
{{end}}</table>
<h2>Slowest recent jobs</h2>
<table>
<tr><th>job</th><th>request id</th><th>tier</th><th>total</th><th>stages</th></tr>
{{range .Slowest}}<tr><td>{{.Name}}</td><td>{{.RequestID}}</td><td>{{.Tier}}</td>
<td>{{secs .Seconds}}</td><td>{{stages .Stages}}</td></tr>
{{end}}</table>
</body></html>
`))

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeView(w, r, statuszTmpl, s.Statusz())
}

// writeView answers an operations page as JSON (the default) or, with
// ?format=html, rendered through tmpl.
func writeView(w http.ResponseWriter, r *http.Request, tmpl *template.Template, v any) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, v)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := tmpl.Execute(w, v); err != nil {
			svcobs.Log(r.Context()).WarnContext(r.Context(),
				"simsvc: "+tmpl.Name()+" render failed", "error", err.Error())
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown format %q (valid: json, html)", format))
	}
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
