// Package simsvc is the simulation-job subsystem: it turns the LADM
// pipeline of internal/core into a schedulable service. A simulation
// request is a pure value (workload, policy, machine, scale) with a
// deterministic content-hash JobKey; a worker pool sized to GOMAXPROCS
// executes jobs with bounded queueing, per-job panic recovery and
// context-based cancellation; an in-memory result cache with
// single-flight deduplication makes identical concurrent requests run
// once; and a metrics layer renders Prometheus-style text counters.
// cmd/ladmserve exposes the whole thing over HTTP, and
// internal/experiments submits its figure sweeps through the pool.
package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
)

// DefaultScale is the input-scale divisor assumed when a request leaves
// Scale unset, matching the fast-run default of the CLI tools.
const DefaultScale = 6

// Fidelity tiers a request can select. The default (empty or "event")
// is the cycle-approximate event engine — the behavior every client had
// before tiers existed. "analytic" demands the closed-form locality
// model and fails when the job is outside its validated domain; "auto"
// is the two-tier oracle: the model answers high-confidence jobs and
// everything else escalates transparently to the event engine.
const (
	FidelityEvent    = "event"
	FidelityAnalytic = "analytic"
	FidelityAuto     = "auto"
)

// Request names one simulation as a pure value: a registered workload,
// policy and machine plus the input scale divisor. Two requests with the
// same normalized fields are the same job and share a JobKey.
type Request struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	Machine  string `json:"machine"`
	// Scale is the input scale divisor (1 = paper-size inputs);
	// 0 means DefaultScale.
	Scale int `json:"scale,omitempty"`
	// Telemetry enables simulated-time sampling and trace collection
	// for the run; the record gains a telemetry summary and
	// GET /jobs/{id}/telemetry serves the series. Part of the JobKey:
	// sampled and unsampled runs cache separately because their records
	// differ.
	Telemetry bool `json:"telemetry,omitempty"`
	// Fidelity selects the serving tier: "" or "event" (the event
	// engine, the default), "analytic" (closed-form model only), or
	// "auto" (model with transparent escalation). Part of the JobKey:
	// an analytic answer and an event answer for the same cell are
	// different records and must never collide in the cache or store.
	Fidelity string `json:"fidelity,omitempty"`
}

// Normalize fills defaulted fields so that equal jobs hash equally.
// "event" fidelity canonicalizes to "" — they are the same tier, and
// the empty form keeps the key (and every persisted record) of a
// pre-tier request byte-identical.
func (r Request) Normalize() Request {
	if r.Policy == "" {
		r.Policy = "ladm"
	}
	if r.Machine == "" {
		r.Machine = "hier"
	}
	if r.Scale <= 0 {
		r.Scale = DefaultScale
	}
	if r.Fidelity == FidelityEvent {
		r.Fidelity = ""
	}
	return r
}

// JobKey is the deterministic content hash identifying a normalized
// Request; it keys the result cache.
type JobKey [sha256.Size]byte

func (k JobKey) String() string { return hex.EncodeToString(k[:]) }

// ParseJobKey decodes the hex form a JobKey is served as. ok=false for
// anything that is not exactly a 64-hex-digit key — callers use it to
// tell "this id is a content key" from "this id is a job name".
func ParseJobKey(s string) (JobKey, bool) {
	var k JobKey
	if len(s) != hex.EncodedLen(len(k)) {
		return JobKey{}, false
	}
	if _, err := hex.Decode(k[:], []byte(s)); err != nil {
		return JobKey{}, false
	}
	return k, true
}

// KeySchema versions the hash layout: bump it if the fields feeding the
// hash (or the simulator's observable outputs) change meaning.
// v2: Telemetry joined the hash and records may carry a telemetry
// summary.
//
// It is exported because the durable result store stamps it into every
// on-disk envelope: a record persisted under one schema is meaningless —
// and treated as corrupt — under any other.
const KeySchema = "simsvc/v2"

// FidelityKeySchema is the hash layout of fidelity-carrying requests
// (v3: Fidelity joined the hash). Event-tier requests keep hashing
// under KeySchema so every pre-tier key, cache entry and stored record
// stays byte-identical; only the new tiers pay the bump.
const FidelityKeySchema = "simsvc/v3"

// Key returns the request's content hash.
func (r Request) Key() JobKey {
	r = r.Normalize()
	h := sha256.New()
	if r.Fidelity == "" {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%t",
			KeySchema, r.Workload, r.Policy, r.Machine, r.Scale, r.Telemetry)
	} else {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\x00%d\x00%t\x00%s",
			FidelityKeySchema, r.Workload, r.Policy, r.Machine, r.Scale, r.Telemetry, r.Fidelity)
	}
	var k JobKey
	h.Sum(k[:0])
	return k
}

// Resolve looks the request's names up in the workload, policy and
// machine registries and returns the executable job. Unknown names
// produce errors that list the valid options. It builds the workload's
// inputs (a graph workload's whole CSR), so the service calls it only
// when a job actually has to run; admission uses Validate.
func (r Request) Resolve() (core.Job, error) {
	r = r.Normalize()
	if err := r.checkFidelity(); err != nil {
		return core.Job{}, err
	}
	spec, err := buildWorkload(r.Workload, r.Scale)
	if err != nil {
		return core.Job{}, err
	}
	pol, err := rt.ByName(r.Policy)
	if err != nil {
		return core.Job{}, err
	}
	cfg, err := arch.ByName(r.Machine)
	if err != nil {
		return core.Job{}, err
	}
	return core.Job{Workload: spec.W, Policy: pol, Arch: cfg}, nil
}

// buildWorkload is the kernel registry's builder; a variable so tests
// can count how often the service builds a workload.
var buildWorkload = kernels.ByName

func (r Request) checkFidelity() error {
	switch r.Fidelity {
	case "", FidelityAnalytic, FidelityAuto:
		return nil
	}
	return fmt.Errorf("unknown fidelity %q (valid: %s, %s, %s)",
		r.Fidelity, FidelityEvent, FidelityAnalytic, FidelityAuto)
}

// workloadNames is the workload registry's name set. The registry is
// filled at init and never changes afterwards.
var workloadNames = sync.OnceValue(func() map[string]bool {
	set := map[string]bool{}
	for _, n := range kernels.Names() {
		set[n] = true
	}
	return set
})

// Validate checks the request against the fidelity tiers and the
// workload, policy and machine registries, in Resolve's order and with
// Resolve's exact errors, without building anything: Validate() == nil
// exactly when Resolve() succeeds.
func (r Request) Validate() error {
	r = r.Normalize()
	if err := r.checkFidelity(); err != nil {
		return err
	}
	if !workloadNames()[r.Workload] {
		// An unknown name fails before the registry builds anything.
		_, err := kernels.ByName(r.Workload, r.Scale)
		return err
	}
	if _, err := rt.ByName(r.Policy); err != nil {
		return err
	}
	_, err := arch.ByName(r.Machine)
	return err
}

// Derived holds the headline metrics computed from a raw record, so JSON
// consumers need not re-implement the formulas.
type Derived struct {
	L1HitRate       float64                       `json:"l1_hit_rate"`
	MPKI            float64                       `json:"mpki"`
	OffNodeFraction float64                       `json:"off_node_fraction"`
	OffNodeBytes    uint64                        `json:"off_node_bytes"`
	L2TrafficShare  [stats.NumTrafficCats]float64 `json:"l2_traffic_share"`
	L2HitRates      [stats.NumTrafficCats]float64 `json:"l2_hit_rates"`
}

// RunPayload is the JSON shape of one simulation result, shared by
// `ladmserve` responses and `ladmsim -json`: the full measurement record
// plus the derived headline metrics.
type RunPayload struct {
	*stats.Run
	Derived Derived `json:"derived"`
}

// NewRunPayload wraps a record with its derived metrics.
func NewRunPayload(r *stats.Run) RunPayload {
	var hits [stats.NumTrafficCats]float64
	for c := stats.TrafficCat(0); c < stats.NumTrafficCats; c++ {
		hits[c] = r.L2[c].HitRate()
	}
	return RunPayload{
		Run: r,
		Derived: Derived{
			L1HitRate:       r.L1HitRate(),
			MPKI:            r.MPKI(),
			OffNodeFraction: r.OffNodeFraction(),
			OffNodeBytes:    r.OffNodeBytes(),
			L2TrafficShare:  r.L2TrafficShare(),
			L2HitRates:      hits,
		},
	}
}
