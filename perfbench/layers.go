package main

import "ladm/internal/stats"

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in report order. Each
// workload reports all of them; README.md gives what an operation is
// on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"}, {"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"peak_rss_mb", "MB"},
}

// stages are the svcobs job stages the service workloads break down.
var stages = []string{
	"received", "cache_probe", "store_probe", "tier_decide", "queue_wait", "compute", "respond",
}

// serviceLayers are the per-layer metrics read from the service's own
// exposition. Every workload reports every one; a layer the workload
// does not pass through reads 0.
func serviceLayers() []metricDef {
	var out []metricDef
	for _, s := range stages {
		out = append(out, metricDef{"stage." + s + ".s", "s"}, metricDef{"stage." + s + ".n", "count"})
	}
	return append(out, []metricDef{
		{"http.server_ms_mean", "ms"}, {"http.client_overhead_ms", "ms"},
		{"cache.hit_ratio", "ratio"}, {"store.hit_ratio", "ratio"}, {"store.writes", "count"},
		{"tier.analytic_ratio", "ratio"}, {"tier.escalations", "count"},
		{"fleet.attempts", "count"}, {"fleet.retries", "count"}, {"fleet.hedges", "count"},
		{"fleet.degraded", "count"}, {"fault.injected", "count"}, {"fleet.useful_ratio", "ratio"},
		{"fleet.attempt_ms_mean", "ms"}, {"fleet.overhead_ms_per_cell", "ms"},
	}...)
}

// simTotals sums the modelled hardware's counters over a set of
// distinct cells. They are exact: a change that only speeds the
// simulator up leaves them unchanged.
type simTotals struct {
	cells                   int
	warpInstrs, tbs         uint64
	l1Sectors, l1Hits       uint64
	l2Sectors, l2Hits       uint64
	dramBytes, offnodeBytes uint64
}

func (s *simTotals) add(r *stats.Run) {
	s.cells++
	s.warpInstrs += r.WarpInstrs
	s.tbs += uint64(r.TBs)
	s.l1Sectors += r.L1Sectors
	s.l1Hits += r.L1Hits
	for _, c := range r.L2 {
		s.l2Sectors += c.Sectors
		s.l2Hits += c.Hits
	}
	s.dramBytes += r.DRAMBytes
	s.offnodeBytes += r.OffNodeBytes()
}

// simMetrics are the simTotals metrics.
var simMetrics = []metricDef{
	{"sim.cells", "count"}, {"sim.warp_instrs", "count"}, {"sim.tbs", "count"},
	{"sim.l1_sectors", "count"}, {"sim.l1_hit_ratio", "ratio"},
	{"sim.l2_sectors", "count"}, {"sim.l2_hit_ratio", "ratio"},
	{"sim.dram_bytes", "bytes"}, {"sim.offnode_bytes", "bytes"},
}

func (s simTotals) values() map[string]float64 {
	return map[string]float64{
		"sim.cells":         float64(s.cells),
		"sim.warp_instrs":   float64(s.warpInstrs),
		"sim.tbs":           float64(s.tbs),
		"sim.l1_sectors":    float64(s.l1Sectors),
		"sim.l1_hit_ratio":  safeDiv(float64(s.l1Hits), float64(s.l1Sectors)),
		"sim.l2_sectors":    float64(s.l2Sectors),
		"sim.l2_hit_ratio":  safeDiv(float64(s.l2Hits), float64(s.l2Sectors)),
		"sim.dram_bytes":    float64(s.dramBytes),
		"sim.offnode_bytes": float64(s.offnodeBytes),
	}
}

// perLayer lists the metrics of a traced run, in report order.
func perLayer() []metricDef {
	out := []metricDef{
		{"trace.overhead", "ratio"}, {"runtime.prepare_ms_per_cell", "ms"},
		{"engine.run_s", "s"}, {"engine.ns_per_instr", "ns"}, {"engine.coverage", "ratio"},
	}
	for _, l := range cpuLayers {
		out = append(out, metricDef{l, "share"})
	}
	out = append(out, simMetrics...)
	out = append(out, metricDef{"go.alloc_mb", "MB"}, metricDef{"go.gc_cycles", "count"})
	return append(out, serviceLayers()...)
}

// scrapeDelta is the change in a service's exposition over a phase,
// summed over every server of the workload.
type scrapeDelta struct{ before, after []promText }

func (d scrapeDelta) sum(name string, match map[string]string) float64 {
	total := 0.0
	for i := range d.after {
		total += d.after[i].sum(name, match) - d.before[i].sum(name, match)
	}
	return total
}

// serviceMetrics derives the svcobs/simsvc/simstore/analytic layer
// metrics from a phase's exposition delta. clientMs is the caller-side
// mean round trip the HTTP overhead is measured against (0: none).
func serviceMetrics(d scrapeDelta, clientMs float64) map[string]float64 {
	m := map[string]float64{}
	for _, s := range stages {
		m["stage."+s+".s"] = d.sum("simsvc_job_stage_seconds_sum", map[string]string{"stage": s})
		m["stage."+s+".n"] = d.sum("simsvc_job_stage_seconds_count", map[string]string{"stage": s})
	}
	run := map[string]string{"route": "/run"}
	reqs := d.sum("simsvc_http_request_seconds_count", run)
	serverMs := 1000 * safeDiv(d.sum("simsvc_http_request_seconds_sum", run), reqs)
	m["http.server_ms_mean"] = serverMs
	if clientMs > 0 && reqs > 0 {
		m["http.client_overhead_ms"] = clientMs - serverMs
	}
	hits := d.sum("simsvc_cache_hits_total", nil)
	storeHits := d.sum("simsvc_store_hits_total", nil)
	storeMisses := d.sum("simsvc_store_misses_total", nil)
	m["cache.hit_ratio"] = safeDiv(hits-storeHits, reqs)
	m["store.hit_ratio"] = safeDiv(storeHits, storeHits+storeMisses)
	m["store.writes"] = d.sum("simsvc_store_writes_total", nil)
	tierAll := d.sum("simsvc_tier_jobs_total", nil)
	m["tier.analytic_ratio"] = safeDiv(d.sum("simsvc_tier_jobs_total", map[string]string{"tier": "analytic"}), tierAll)
	// The unlabeled total; the {reason} children break the same count down.
	m["tier.escalations"] = d.sum("simsvc_tier_escalations_total", map[string]string{"reason": ""})
	return m
}
