// Command perfbench is the repository's host-performance benchmark: it
// runs one named workload through the simulator's public entry points
// in this process, checks every simulated record against its pinned
// digest, and prints every metric by name with its unit.
//
//	perfbench --workload fig9-campaign --seed 1 --seconds 12 --trace 0
//	perfbench pin [--workload NAME]        # regenerate pinned digests
//	perfbench compare PARENT CHANGE        # judge two result sets
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) reports the
// per-layer metrics, writes a Chrome trace and a CPU profile, and
// compares its wall time against an untraced pass over the same work.
// README.md has the metric glossary.
//
// perfbench/run.sh builds and runs it from the repository root; it
// passes PERFBENCH_OUT (scratch directory for stores, traces and
// profiles) and PERFBENCH_PINS (the pinned digests).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the timed phase uses the last instance.
const setupReps = 15

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	pins    pinSet
	nproc   int // load, pool workers and connections never exceed this
}

// instance is a set-up workload, ready for timed phases.
type instance interface {
	// run executes units (a campaign batch, a request, a dispatched
	// cell) in a closed loop until stop(i) reports true for the next
	// unit index i. Units are numbered from 0 in input order on every
	// call, so two phases given the same stop bound do the same work.
	// Every completed operation is counted on m, whose windows give the
	// phase's rates.
	run(stop func(i int) bool, m *meter) *phase
	// layers returns the workload's service-plane per-layer metrics for
	// the most recent phase (counter deltas read from its exposition).
	layers(p *phase) map[string]float64
	// warm brings the system to its steady state before a timed phase;
	// it is not timed.
	warm() error
	close()
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name, why string
	// minUnits is the input prefix every run completes; the sim.*
	// totals are taken over the distinct cells of exactly this prefix,
	// so they repeat exactly for a seed whatever the host speed.
	minUnits int
	// inputs generates the seeded inputs (and releases them when the
	// run ends); setup builds the system under test from them (timed,
	// repeated setupReps times).
	inputs func(cfg *config) (in any, release func(), err error)
	setup  func(cfg *config, in any, hooks *simHooks) (instance, error)
	// cells enumerates every cell the workload can request, with the
	// record each one must produce, for the pin command.
	pin func(cfg *config) (pinSet, error)
}

var workloads = []*workloadDef{fig9Def, serveDef, fleetDef}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// phase is what one timed phase observed.
type phase struct {
	units     int       // input units completed
	ops       int       // operations in metric units (cells or requests)
	failed    int       // non-2xx, errors and digest mismatches
	lat       []float64 // per-operation latency, ms
	delivered uint64    // warp instructions of the records returned
	sim       simTotals // distinct cells of the first minUnits units
	wall      time.Duration
	windows   []window
	before    usage
	after     usage
	errs      []string // the first few failure messages
	notes     []string
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pin":
			exitOn(pinMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:], os.Stdout))
			return
		}
	}
	exitOn(runMain(os.Args[1:]))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func baseConfig() (*config, error) {
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		return nil, errors.New("PERFBENCH_OUT is not set (run through perfbench/run.sh)")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	return &config{outDir: out, nproc: runtime.NumCPU()}, nil
}

func pinsDir() (string, error) {
	d := os.Getenv("PERFBENCH_PINS")
	if d == "" {
		return "", errors.New("PERFBENCH_PINS is not set (run through perfbench/run.sh)")
	}
	return d, nil
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	def, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg, err := baseConfig()
	if err != nil {
		return err
	}
	dir, err := pinsDir()
	if err != nil {
		return err
	}
	cfg.seed, cfg.seconds, cfg.trace = *seed, *seconds, *traced == 1
	if cfg.pins, err = loadPins(dir, def.name); err != nil {
		return err
	}
	in, release, err := def.inputs(cfg)
	if err != nil {
		return err
	}
	defer release()
	res := &result{Workload: def.name, Why: def.why, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Env: currentEnv(), Started: time.Now().UTC().Format(time.RFC3339Nano)}
	if cfg.trace {
		err = tracedRun(cfg, def, in, res)
	} else {
		err = untracedRun(cfg, def, in, res)
	}
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// setupMany sets the workload up setupReps times, keeps the last
// instance and returns the median set-up time.
func setupMany(cfg *config, def *workloadDef, in any, hooks *simHooks) (instance, float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = def.setup(cfg, in, hooks)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, median(times), nil
}

// timed runs one phase and stamps its wall time and resource usage.
func timed(inst instance, stop func(i int) bool) *phase {
	runtime.GC()
	before := readUsage()
	t0 := time.Now()
	m := newMeter()
	p := inst.run(stop, m)
	p.wall = time.Since(t0)
	p.before, p.after = before, readUsage()
	p.windows = m.windows()
	return p
}

// untilDeadline stops once the phase has run for d and has completed
// the first minUnits units. The clock starts at the first call, when
// the phase asks for its first unit.
func untilDeadline(d time.Duration, minUnits int) func(int) bool {
	var start atomic.Int64
	return func(i int) bool {
		start.CompareAndSwap(0, time.Now().UnixNano())
		return i >= minUnits && time.Since(time.Unix(0, start.Load())) >= d
	}
}

func untracedRun(cfg *config, def *workloadDef, in any, res *result) error {
	hooks := &simHooks{}
	inst, setupS, err := setupMany(cfg, def, in, hooks)
	if err != nil {
		return err
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	hooks.reset()
	p := timed(inst, untilDeadline(seconds(cfg.seconds), def.minUnits))
	res.fromPhase(p)
	if p.ops == 0 {
		return errors.New("no operations completed")
	}
	t, ok := tailOf(p.lat)
	if !ok {
		return fmt.Errorf("only %d latency samples; the tail needs more than %d", len(p.lat), tailBeyond)
	}
	res.Tail = t.String()
	if len(p.windows) == 0 {
		return errors.New("the phase closed no throughput window")
	}
	opsPerS, cpuMs := windowRates(p.windows)
	res.Windows = len(p.windows)
	for _, w := range p.windows {
		res.WindowRates = append(res.WindowRates, float64(w.ops)/w.dur.Seconds())
	}
	res.SimInstrPerS = float64(p.delivered) / p.wall.Seconds()
	vals := map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     opsPerS,
		"op_p50_ms":     median(p.lat),
		"op_tail_ms":    t.Value,
		"cpu_ms_per_op": cpuMs,
		"peak_rss_mb":   float64(p.after.maxRSS) / (1 << 20),
	}
	for _, m := range endToEnd {
		res.metric(m.name, vals[m.name], m.unit)
	}
	return nil
}

// tracedRun makes two passes over the same input prefix on fresh
// instances: untraced first (half the run length), then traced with
// spans and a CPU profile. Per-layer metrics come from the traced pass,
// except go.* which describe the program and so come from the untraced
// one; trace.overhead compares the two wall times.
func tracedRun(cfg *config, def *workloadDef, in any, res *result) error {
	hooks := &simHooks{}
	instA, err := def.setup(cfg, in, hooks)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := instA.warm(); err != nil {
		instA.close()
		return fmt.Errorf("warm-up: %w", err)
	}
	hooks.reset()
	a := timed(instA, untilDeadline(seconds(cfg.seconds/2), def.minUnits))
	instA.close()

	tr := newTracer()
	hooks = &simHooks{tr: tr}
	instB, err := def.setup(cfg, in, hooks)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	defer instB.close()
	if err := instB.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	hooks.reset()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	b := timed(instB, func(i int) bool { return i >= a.units })
	pprof.StopCPUProfile()
	res.fromPhase(b)
	res.Untraced = &passSummary{Units: a.units, Ops: a.ops, WallS: a.wall.Seconds()}
	res.Traced = &passSummary{Units: b.units, Ops: b.ops, WallS: b.wall.Seconds()}
	if a.failed > 0 {
		res.Failed += a.failed
		res.Errors = append(res.Errors, a.errs...)
		res.Correct = false
	}

	base := filepath.Join(cfg.outDir, fmt.Sprintf("perfbench-%s-seed%d", def.name, cfg.seed))
	res.TraceFile = base + ".trace.json"
	res.ProfileFile = base + ".cpu.pprof"
	if err := tr.writeChrome(res.TraceFile); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(res.ProfileFile, prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing profile: %w", err)
	}
	shares, profiledS, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	res.ProfiledCPUS = profiledS

	vals := instB.layers(b)
	hooks.mu.Lock()
	cells, prep, eng, instrs := hooks.cells, hooks.prepare, hooks.engine, hooks.instrs
	hooks.mu.Unlock()
	vals["trace.overhead"] = b.wall.Seconds()/a.wall.Seconds() - 1
	vals["runtime.prepare_ms_per_cell"] = safeDiv(ms(prep), float64(cells))
	vals["engine.run_s"] = eng.Seconds()
	vals["engine.ns_per_instr"] = safeDiv(float64(eng.Nanoseconds()), float64(instrs))
	// The pool's busy time is its compute stage: how much of it the two
	// public calls the engine consists of account for.
	vals["engine.coverage"] = safeDiv(eng.Seconds()+prep.Seconds(), vals["stage.compute.s"])
	for k, v := range shares {
		vals[k] = v
	}
	for k, v := range b.sim.values() {
		vals[k] = v
	}
	vals["go.alloc_mb"] = float64(a.after.alloc-a.before.alloc) / (1 << 20)
	vals["go.gc_cycles"] = float64(a.after.gcCount - a.before.gcCount)
	for _, m := range perLayer() {
		res.metric(m.name, vals[m.name], m.unit)
	}
	return nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pinMain regenerates the pinned digests of one workload or all.
func pinMain(args []string) error {
	fs := flag.NewFlagSet("perfbench pin", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to pin (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := baseConfig()
	if err != nil {
		return err
	}
	dir, err := pinsDir()
	if err != nil {
		return err
	}
	defs := workloads
	if *name != "" {
		def, err := workloadByName(*name)
		if err != nil {
			return err
		}
		defs = []*workloadDef{def}
	}
	for _, def := range defs {
		t0 := time.Now()
		p, err := def.pin(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		header := fmt.Sprintf("%s: canonical stats.Run JSON sha256 per cell; regenerate with `bash perfbench/run.sh pin --workload %s`", def.name, def.name)
		if err := p.save(dir, def.name, header); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: pinned %d cells of %s in %s\n", len(p), def.name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// passSummary describes one pass of a traced run.
type passSummary struct {
	Units int     `json:"units"`
	Ops   int     `json:"ops"`
	WallS float64 `json:"wall_s"`
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record. The RESULT line the compare tool
// reads carries all of it; the last line carries only the four keys
// correct, attempted, failed and metrics.
type result struct {
	Workload     string                 `json:"workload"`
	Why          string                 `json:"why"`
	Seed         uint64                 `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Trace        bool                   `json:"trace"`
	Env          envInfo                `json:"env"`
	Started      string                 `json:"started"`
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Errors       []string               `json:"errors,omitempty"`
	Notes        []string               `json:"notes,omitempty"`
	Tail         string                 `json:"tail,omitempty"`
	Windows      int                    `json:"windows,omitempty"`
	WindowRates  []float64              `json:"window_rates,omitempty"`
	SimInstrPerS float64                `json:"sim_instr_per_s,omitempty"`
	Untraced     *passSummary           `json:"untraced,omitempty"`
	Traced       *passSummary           `json:"traced,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`
	ProfileFile  string                 `json:"profile_file,omitempty"`
	ProfiledCPUS float64                `json:"profiled_cpu_s,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	order        []string
}

func (r *result) metric(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metricValue{}
	}
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) fromPhase(p *phase) {
	r.Attempted, r.Failed, r.Errors, r.Notes = p.ops, p.failed, p.errs, p.notes
	r.Correct = p.failed == 0
}

// print writes the human-readable report, the RESULT record and, last,
// the four-key summary line.
func (r *result) print(w io.Writer) error {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g %s\n%s\n", r.Workload, r.Seed, r.Seconds, mode, r.Why)
	fmt.Fprintf(w, "env: nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPU, r.Env.Go, r.Env.Commit)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d correct=%t\n", r.Attempted, r.Failed, r.Correct)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if r.Tail != "" {
		fmt.Fprintf(w, "op_tail_ms is %s; ops_per_s and cpu_ms_per_op are medians over %d windows\n", r.Tail, r.Windows)
		fmt.Fprintf(w, "sim_instr_per_s (warp instructions of the returned records per wall second): %.6g\n", r.SimInstrPerS)
	}
	if r.Trace {
		fmt.Fprintf(w, "trace.overhead compares the traced pass (%d units, %d ops, %.3f s) with the untraced pass it was compared to (%d units, %d ops, %.3f s)\n",
			r.Traced.Units, r.Traced.Ops, r.Traced.WallS, r.Untraced.Units, r.Untraced.Ops, r.Untraced.WallS)
		fmt.Fprintf(w, "chrome trace: %s\ncpu profile: %s (%.2f CPU-s sampled)\n", r.TraceFile, r.ProfileFile, r.ProfiledCPUS)
		printLayerTable(w, r)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	full, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RESULT %s\n", full)
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// printLayerTable renders the traced run's CPU shares by layer; the
// shares sum to 1 by construction (every sample has one layer).
func printLayerTable(w io.Writer, r *result) {
	fmt.Fprintf(w, "CPU share by layer (innermost frame), %s:\n", r.Workload)
	sum := 0.0
	for _, l := range cpuLayers {
		v := r.Metrics[l].Value
		sum += v
		fmt.Fprintf(w, "  %-20s %6.2f%%\n", l, 100*v)
	}
	fmt.Fprintf(w, "  %-20s %6.2f%%\n", "total", 100*sum)
}

// tickets hands out unit indices in input order until stop first says
// true; from then on every caller is refused, so the units a phase
// completed are exactly 0..issued()-1 however the clients interleave.
type tickets struct {
	mu   sync.Mutex
	next int
	done bool
	stop func(int) bool
}

func (t *tickets) take() (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.stop(t.next) {
		t.done = true
		return 0, false
	}
	t.next++
	return t.next - 1, true
}

func (t *tickets) issued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}
