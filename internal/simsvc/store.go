package simsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simstore"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// TelemetrySchema is the key schema of spilled telemetry records. It is
// separate from KeySchema because the payloads version independently: a
// telemetry shape change must not invalidate cached run records, and
// vice versa.
const TelemetrySchema = "simsvc-telemetry/v1"

// TelemetryRecord is the durable form of one telemetry job's full
// observability output: the provenance summary, the sampled series, and
// the complete Chrome trace event list (spans plus counter tracks), so a
// record read back after eviction or restart renders byte-identically to
// the live collector.
type TelemetryRecord struct {
	Summary *stats.Telemetry `json:"summary"`
	Series  *simtel.Series   `json:"series"`
	Events  []simtel.Event   `json:"events"`
}

// newTelemetryRecord assembles a job's telemetry record from its run and
// the collector that sampled it; either may be nil. Without a collector
// the record holds only the summary.
func newTelemetryRecord(run *stats.Run, tel *simtel.Collector) *TelemetryRecord {
	trec := &TelemetryRecord{}
	if run != nil {
		trec.Summary = run.Telemetry
	}
	if tel != nil {
		trec.Series, trec.Events = tel.Series(), tel.AllEvents()
	}
	return trec
}

// DiskStore adapts the generic byte-envelope store of internal/simstore
// to the Cache's second level: records are stats.Run JSON payloads keyed
// by JobKey hex. Payloads that pass the envelope's CRC but fail to
// decode as a Run (a schema drift the envelope cannot see) are
// quarantined exactly like checksum failures — the caller only ever
// observes a miss.
type DiskStore struct {
	Store *simstore.Store
	// Tel is the sibling store for spilled telemetry records (nil when
	// its directory could not be opened; telemetry then lives and dies
	// with the job registry, exactly as before the spill existed).
	Tel *simstore.Store
	// Tool names the producing binary in each envelope's provenance.
	Tool string

	// reg exposes Store's counters as the simsvc_store_* families.
	reg svcobs.Registry
}

// Registry returns the store's metric families (nil for a nil store).
func (d *DiskStore) Registry() *svcobs.Registry {
	if d == nil {
		return nil
	}
	return &d.reg
}

// TelemetryDir returns the telemetry store's directory under a result
// store root.
func TelemetryDir(dir string) string { return filepath.Join(dir, "telemetry") }

// NewDiskStore opens a simstore under dir for this service's key schema,
// plus a telemetry store under dir/telemetry. A telemetry-store failure
// degrades to running without the spill — run records are the product,
// telemetry is diagnostics.
func NewDiskStore(dir string, maxBytes int64, tool string, logf func(string, ...any)) (*DiskStore, error) {
	st, err := simstore.Open(simstore.Options{
		Dir:      dir,
		MaxBytes: maxBytes,
		Schema:   KeySchema,
		Logf:     logf,
	})
	if err != nil {
		return nil, err
	}
	tel, err := simstore.Open(simstore.Options{
		Dir:      TelemetryDir(dir),
		MaxBytes: maxBytes,
		Schema:   TelemetrySchema,
		Logf:     logf,
	})
	if err != nil {
		if logf != nil {
			logf("simsvc: telemetry store unavailable, running without spill: %v", err)
		}
		tel = nil
	}
	d := &DiskStore{Store: st, Tel: tel, Tool: tool}
	registerStore(&d.reg, st)
	return d, nil
}

// Rescan picks up records written to the shared store directory by
// other processes since open (or the previous rescan), returning how
// many were found. The cache layer calls it on a store miss before
// paying for a recompute, so two ladmbench campaigns (or a campaign and
// a server) sharing -store-dir serve each other's finished cells.
func (d *DiskStore) Rescan() int {
	n := d.Store.Rescan()
	if d.Tel != nil {
		d.Tel.Rescan()
	}
	return n
}

// GetRun returns the record persisted under key, if a valid one exists.
func (d *DiskStore) GetRun(key JobKey) (*stats.Run, bool) {
	payload, ok := d.Store.Get(key.String())
	if !ok {
		return nil, false
	}
	run := new(stats.Run)
	if err := json.Unmarshal(payload, run); err != nil {
		d.Store.Quarantine(key.String(), fmt.Errorf("payload is not a stats.Run: %w", err))
		return nil, false
	}
	return run, true
}

// PutRun persists a completed record via the store's write-behind queue;
// Close flushes anything still queued. The run's fidelity-tier tags are
// mirrored into the envelope's provenance, so inspecting a store never
// leaves it ambiguous whether the closed-form model or the event engine
// produced a record.
func (d *DiskStore) PutRun(key JobKey, run *stats.Run) {
	payload, err := json.Marshal(run)
	if err != nil {
		return
	}
	prov := stats.NewProvenance(d.Tool)
	prov.Tier, prov.Confidence = run.Tier, run.Confidence
	d.Store.PutAsync(key.String(), payload, prov)
}

// PutTelemetry persists a telemetry record via the telemetry store's
// write-behind queue. Returns false when there is no telemetry store or
// the record does not serialize.
func (d *DiskStore) PutTelemetry(key JobKey, rec *TelemetryRecord) bool {
	if d.Tel == nil || rec == nil {
		return false
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return false
	}
	d.Tel.PutAsync(key.String(), payload, stats.NewProvenance(d.Tool))
	return true
}

// GetTelemetry returns the telemetry record spilled under key.
// quarantined=true reports that a record existed but failed validation
// just now (the caller's cue to answer 410 Gone rather than 404): the
// envelope layer quarantines checksum failures, and payloads that pass
// the CRC but no longer decode as a TelemetryRecord are quarantined
// here for the same reason.
func (d *DiskStore) GetTelemetry(key JobKey) (rec *TelemetryRecord, ok, quarantined bool) {
	if d.Tel == nil {
		return nil, false, false
	}
	k := key.String()
	existed := d.Tel.Contains(k)
	payload, got := d.Tel.Get(k)
	if !got {
		return nil, false, existed
	}
	rec = new(TelemetryRecord)
	if err := json.Unmarshal(payload, rec); err != nil {
		d.Tel.Quarantine(k, fmt.Errorf("payload is not a TelemetryRecord: %w", err))
		return nil, false, true
	}
	return rec, true, false
}

// Close flushes pending write-backs and releases both stores.
func (d *DiskStore) Close() {
	d.Store.Close()
	if d.Tel != nil {
		d.Tel.Close()
	}
}

// RequestForJob maps a sweep job back to the registry Request naming it,
// if one exists: the workload must be byte-equal to its registry build
// at the given scale, the policy must be a named preset, and the machine
// must be a registered configuration. Custom or mutated jobs (hwvalid's
// CustomGEMM, oversub's repeated launches, scaling's resized hierarchies,
// telemetry-carrying jobs) report ok=false — they have no stable content
// key and must not be served from, or written to, the result cache.
func RequestForJob(job core.Job, scale int) (Request, bool) {
	if job.Tel != nil {
		return Request{}, false
	}
	return nameJob(job, scale, func(name string) *kir.Workload {
		return registryWorkload(name, scale)
	})
}

// registryWorkload builds the named registry workload at scale (nil when
// the name is unknown).
func registryWorkload(name string, scale int) *kir.Workload {
	spec, err := kernels.ByName(name, scale)
	if err != nil {
		return nil
	}
	return spec.W
}

// nameJob is the one job-to-Request match, ignoring the job's telemetry
// collector: build supplies the registry workload at scale that the
// job's must equal byte for byte, the policy must be a preset, the
// machine a registered configuration.
func nameJob(job core.Job, scale int, build func(name string) *kir.Workload) (Request, bool) {
	if job.Workload == nil {
		return Request{}, false
	}
	if w := build(job.Workload.Name); w == nil || !kir.Equal(w, job.Workload) {
		return Request{}, false
	}
	pol, err := rt.ByName(job.Policy.Name)
	if err != nil || !reflect.DeepEqual(pol, job.Policy) {
		return Request{}, false
	}
	machine, ok := machineName(job.Arch)
	if !ok {
		return Request{}, false
	}
	return Request{
		Workload: job.Workload.Name,
		Policy:   pol.Name,
		Machine:  machine,
		Scale:    scale,
	}.Normalize(), true
}

// machineName reverse-looks-up a configuration in the machine registry.
// arch.Config is a flat comparable value, so mutated variants (resized
// hierarchies, capacity caps) simply compare unequal.
func machineName(cfg arch.Config) (string, bool) {
	for _, name := range arch.Names() {
		if built, err := arch.ByName(name); err == nil && built == cfg {
			return name, true
		}
	}
	return "", false
}

// CachedRunner routes registry-named sweep cells through a result cache
// (and whatever durable store backs it) by JobKey, falling back to the
// inner Runner for everything it cannot name. It closes the ROADMAP's
// "cache-aware sweeps" item: `ladmbench -experiment all` stops
// re-simulating the fig9 matrix for fig10, and a campaign killed
// mid-flight resumes from disk with only the missing cells simulated.
//
// Cached records are shared across callers; core.Sweep applies labels
// to clones, so the canonical record in the cache is never mutated.
type CachedRunner struct {
	// Inner executes the jobs that actually need simulating.
	Inner core.Runner
	// Cache is the (optionally store-backed) result cache.
	Cache *Cache
	// Scale is the input-scale divisor the sweep's workloads were built
	// at; it is part of every JobKey.
	Scale int
	// Fidelity names the serving tier Inner answers with ("" = event).
	// It is part of every JobKey, so a campaign run through the analytic
	// oracle can never collide with — or be served from — event-tier
	// records of the same cells.
	Fidelity string
	// Progress, when set, is called once per finished cell with the
	// cell's name and whether it was served from the cache. Under
	// core.Sweep it is called from many goroutines at once.
	Progress func(cell string, cached bool)

	mu     sync.Mutex // guards builds
	builds map[string]*kir.Workload
}

// build returns the registry workload for name at c.Scale, building it
// once per runner: a resumed all-hit campaign pays one build per
// workload, not one per cell.
func (c *CachedRunner) build(name string) *kir.Workload {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.builds[name]
	if !ok {
		w = registryWorkload(name, c.Scale)
		if c.builds == nil {
			c.builds = map[string]*kir.Workload{}
		}
		c.builds[name] = w
	}
	return w
}

// Exec implements core.Runner. A registry-named job is served through
// the cache by its JobKey; anything else, and any job carrying a
// collector, runs on Inner. Records match a plain pool run byte for
// byte — the determinism guard extends to the cached path.
func (c *CachedRunner) Exec(ctx context.Context, job core.Job) (*stats.Run, error) {
	req, named := nameJob(job, c.Scale, c.build)
	if !named || job.Tel != nil {
		run, err := c.Inner.Exec(ctx, job)
		if err != nil {
			return nil, err
		}
		c.tick(job, false)
		return run, nil
	}
	req.Fidelity = c.Fidelity
	req = req.Normalize()
	// The key names the canonical record, so the cell runs — and shows
	// in progress lines and the pool's timelines — as workload/policy.
	job.Label = ""
	run, hit, err := c.Cache.Do(ctx, req.Key(), func() (*stats.Run, error) {
		return c.Inner.Exec(ctx, job)
	})
	if err != nil {
		return nil, err
	}
	c.tick(job, hit)
	return run, nil
}

func (c *CachedRunner) tick(job core.Job, cached bool) {
	if c.Progress == nil {
		return
	}
	cell := job.Label
	if cell == "" && job.Workload != nil {
		cell = fmt.Sprintf("%s/%s", job.Workload.Name, job.Policy.Name)
	}
	c.Progress(cell, cached)
}
