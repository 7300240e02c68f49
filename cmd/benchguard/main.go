// Command benchguard is the benchmark regression gate for the engine's
// allocation-free event core and the analytic tier's speed claims. It
// parses `go test -bench -benchmem` output and compares each benchmark
// against the baseline pinned in BENCH_engine.json, failing when any
// benchmark regresses.
//
// Two gates apply per benchmark. Allocation counts are (nearly)
// deterministic for a deterministic simulator, so allocs/op is gated
// sharply against max_allocs_per_op. Wall-clock ns/op is gated loosely:
// a run fails only beyond max_ns_ratio times the pinned ns_per_op
// (default 3x, per-benchmark override in the baseline; 0 on an entry
// inherits the file default). The loose ratio absorbs shared-runner
// noise while still catching order-of-magnitude regressions — e.g. the
// analytic tier silently falling back to event simulation.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 1x -count 5 -cpu 2 ... > bench.txt
//	go run ./cmd/benchguard -baseline BENCH_engine.json bench.txt
//
// Several go test runs may write to one file (the CI gives its
// sub-millisecond benchmarks -benchtime 200x in a second run): ns/op and
// allocs/op are per operation, so every sample of a benchmark counts
// alike. After an intentional change to the engine's allocation
// behavior, regenerate the baseline from the same command (ns/op and
// allocs/op are pinned at the median sample; ratio overrides are
// preserved):
//
//	go run ./cmd/benchguard -baseline BENCH_engine.json -update bench.txt
//
// A re-pin only ever lowers an allocation ceiling: the new ceiling is
// 1.5x the measured allocs/op or the old ceiling, whichever is lower. A
// change that needs more allocations must raise the ceiling by hand, in
// view of its reviewers.
//
// The baseline records the GOMAXPROCS and CPU model it was measured at.
// Wall time depends on both, so a run at a different GOMAXPROCS is
// refused outright (pass go test -cpu to match); a different CPU model is
// only noted, since CI runners vary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type entry struct {
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	MaxAllocsPerOp int64   `json:"max_allocs_per_op"`
	// MaxNsRatio overrides the baseline's ns/op gate for this benchmark
	// (0: inherit the file-level default).
	MaxNsRatio float64 `json:"max_ns_ratio,omitempty"`
}

type baseline struct {
	Note string `json:"note"`
	// GOMAXPROCS and CPU describe the host the baseline was measured on
	// (0 / "": not recorded, no check).
	GOMAXPROCS int              `json:"gomaxprocs,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
	// MaxNsRatio is the default wall-time gate: a benchmark fails beyond
	// this multiple of its pinned ns_per_op (0: defaultNsRatio).
	MaxNsRatio float64 `json:"max_ns_ratio,omitempty"`
}

// defaultNsRatio is the wall-time gate applied when the baseline pins no
// ratio of its own: loose enough for shared-runner noise, tight enough
// to catch a tier or algorithmic regression.
const defaultNsRatio = 3.0

// nsRatioLimit resolves the effective ns/op gate for one benchmark.
func nsRatioLimit(base baseline, e entry) float64 {
	if e.MaxNsRatio > 0 {
		return e.MaxNsRatio
	}
	if base.MaxNsRatio > 0 {
		return base.MaxNsRatio
	}
	return defaultNsRatio
}

type measurement struct {
	nsPerOp     float64
	allocsPerOp int64
	hasAllocs   bool
	procs       int    // GOMAXPROCS the benchmark ran at (0: unknown)
	cpu         string // the "cpu:" header go test printed before it
}

// procSuffix is the -<GOMAXPROCS> tail go test appends to benchmark
// names (BenchmarkFig9/vecadd-8); go test omits it at GOMAXPROCS=1.
var procSuffix = regexp.MustCompile(`-(\d+)$`)

// parseBench reads go test -bench output. A benchmark reported several
// times (-count N) is summarized by its median ns/op and median
// allocs/op.
func parseBench(r io.Reader) (map[string]measurement, error) {
	samples := make(map[string][]measurement)
	cpu := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if c, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		m := measurement{procs: 1, cpu: cpu}
		name := fields[0]
		if sm := procSuffix.FindStringSubmatch(name); sm != nil {
			m.procs, _ = strconv.Atoi(sm[1])
			name = strings.TrimSuffix(name, sm[0])
		}
		for i := 2; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
				}
				m.nsPerOp = v
			case "allocs/op":
				v, err := strconv.ParseInt(fields[i-1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op in %q: %v", line, err)
				}
				m.allocsPerOp = v
				m.hasAllocs = true
			}
		}
		samples[name] = append(samples[name], m)
	}
	out := make(map[string]measurement, len(samples))
	for name, ms := range samples {
		m := ms[len(ms)-1]
		m.nsPerOp = median(ms, func(m measurement) float64 { return m.nsPerOp })
		m.allocsPerOp = int64(median(ms, func(m measurement) float64 { return float64(m.allocsPerOp) }))
		out[name] = m
	}
	return out, sc.Err()
}

// median returns the median of f over ms (the lower middle value of an
// even count, so the result is always one of the samples).
func median(ms []measurement, f func(measurement) float64) float64 {
	vs := make([]float64, len(ms))
	for i, m := range ms {
		vs[i] = f(m)
	}
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

// runProcs returns the one GOMAXPROCS every measurement ran at, or an
// error when the run mixes several.
func runProcs(measured map[string]measurement) (int, error) {
	procs := 0
	for name, m := range measured {
		if procs != 0 && m.procs != procs {
			return 0, fmt.Errorf("run mixes GOMAXPROCS %d and %d (%s): pass a single -cpu value", procs, m.procs, name)
		}
		procs = m.procs
	}
	return procs, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_engine.json", "pinned baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the measured run (ceilings re-pinned at 1.5x)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: benchguard [-baseline file] [-update] bench-output.txt|-\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	in := os.Stdin
	if name := flag.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	raw, err := os.ReadFile(*baselinePath)
	var base baseline
	if err == nil {
		if jerr := json.Unmarshal(raw, &base); jerr != nil {
			fatal(fmt.Errorf("%s: %v", *baselinePath, jerr))
		}
	} else if !*update {
		fatal(err)
	}

	if *update {
		if err := repin(&base, measured); err != nil {
			fatal(err)
		}
		buf, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal(err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: pinned %d benchmarks into %s\n", len(base.Benchmarks), *baselinePath)
		return
	}

	if check(base, measured, os.Stdout) > 0 {
		os.Exit(1)
	}
}

// repin rewrites base from a measured run: host, ns/op and allocs/op
// from the run, ceilings at 1.5x measured allocs/op but never above the
// ceiling already pinned.
func repin(base *baseline, measured map[string]measurement) error {
	procs, err := runProcs(measured)
	if err != nil {
		return err
	}
	base.GOMAXPROCS = procs
	if base.Benchmarks == nil {
		base.Benchmarks = make(map[string]entry)
	}
	for name, m := range measured {
		if !m.hasAllocs {
			continue
		}
		base.CPU = m.cpu
		e := entry{
			NsPerOp:        m.nsPerOp,
			AllocsPerOp:    m.allocsPerOp,
			MaxAllocsPerOp: m.allocsPerOp + m.allocsPerOp/2,
		}
		// Ratio overrides are policy, not measurement; they survive a
		// re-pin. Ceilings only ever come down.
		if old, ok := base.Benchmarks[name]; ok {
			e.MaxNsRatio = old.MaxNsRatio
			if old.MaxAllocsPerOp > 0 {
				e.MaxAllocsPerOp = min(e.MaxAllocsPerOp, old.MaxAllocsPerOp)
			}
		}
		base.Benchmarks[name] = e
	}
	return nil
}

// check gates every pinned benchmark against the baseline — allocs/op
// against its ceiling, ns/op against the loose ratio — writing one line
// per benchmark, and returns the number of failures.
func check(base baseline, measured map[string]measurement, w io.Writer) int {
	if base.GOMAXPROCS > 0 {
		procs, err := runProcs(measured)
		if err != nil {
			fmt.Fprintf(w, "FAIL  %v\n", err)
			return 1
		}
		if procs != base.GOMAXPROCS {
			fmt.Fprintf(w, "FAIL  run at GOMAXPROCS=%d, baseline pinned at GOMAXPROCS=%d: wall times compare only like for like (rerun with go test -cpu %d)\n",
				procs, base.GOMAXPROCS, base.GOMAXPROCS)
			return 1
		}
	}
	if base.CPU != "" {
		for _, m := range measured {
			if m.cpu != "" && m.cpu != base.CPU {
				fmt.Fprintf(w, "note  run on %q, baseline measured on %q\n", m.cpu, base.CPU)
				break
			}
		}
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(w, "FAIL  %-36s not present in this run (renamed or deleted? re-pin with -update)\n", name)
			failed++
			continue
		}
		if !got.hasAllocs {
			fmt.Fprintf(w, "FAIL  %-36s run without -benchmem (no allocs/op reported)\n", name)
			failed++
			continue
		}
		status := "ok  "
		if got.allocsPerOp > want.MaxAllocsPerOp {
			status = "FAIL"
			failed++
		}
		speed := ""
		if want.NsPerOp > 0 && got.nsPerOp > 0 {
			ratio, limit := got.nsPerOp/want.NsPerOp, nsRatioLimit(base, want)
			verdict := "gated"
			if ratio > limit {
				verdict = "FAIL"
				if status == "ok  " {
					status = "FAIL"
					failed++
				}
			}
			speed = fmt.Sprintf("  (%.2fx baseline time, %s at %gx)", ratio, verdict, limit)
		}
		fmt.Fprintf(w, "%s  %-36s %8d allocs/op  ceiling %8d%s\n",
			status, name, got.allocsPerOp, want.MaxAllocsPerOp, speed)
	}
	for name, m := range measured {
		if _, ok := base.Benchmarks[name]; !ok && m.hasAllocs {
			fmt.Fprintf(w, "note  %-36s %8d allocs/op  (unpinned; add with -update)\n", name, m.allocsPerOp)
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "benchguard: %d benchmark(s) regressed above a pinned ceiling\n", failed)
		return failed
	}
	fmt.Fprintf(w, "benchguard: all %d pinned benchmarks within allocation ceilings and time ratios\n", len(names))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
