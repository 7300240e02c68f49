package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

func TestZipfSequenceDeterministicPerSeed(t *testing.T) {
	a := zipfSequence(7, 50, 1.1, 5000)
	b := zipfSequence(7, 50, 1.1, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sequences")
	}
	if reflect.DeepEqual(a, zipfSequence(8, 50, 1.1, 5000)) {
		t.Fatal("different seeds produced the same sequence")
	}
	counts := make([]int, 50)
	for _, x := range a {
		if x < 0 || x >= 50 {
			t.Fatalf("draw %d outside [0, 50)", x)
		}
		counts[x]++
	}
	// Rank 0 should draw roughly 1/H(50, 1.1) of the requests (about
	// 24%), far above a uniform share of 2%, and outdraw rank 49.
	if share := float64(counts[0]) / 5000; share < 0.15 || share > 0.35 {
		t.Fatalf("head share %.3f, want about 0.24", share)
	}
	if counts[0] <= counts[49] {
		t.Fatalf("rank 0 drew %d, rank 49 drew %d", counts[0], counts[49])
	}
}

func TestPermutationIsAShuffle(t *testing.T) {
	p := permutation(3, 100)
	seen := make([]bool, 100)
	for _, x := range p {
		if seen[x] {
			t.Fatalf("%d repeated", x)
		}
		seen[x] = true
	}
	if !reflect.DeepEqual(p, permutation(3, 100)) {
		t.Fatal("permutation is not deterministic")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if _, ok := tailOf(make([]float64, tailBeyond)); ok {
		t.Fatal("10 samples cannot have 10 beyond any percentile")
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1: order must not matter
	}
	tl, ok := tailOf(xs)
	if !ok {
		t.Fatal("1000 samples support a tail")
	}
	if tl.Value != 990 || tl.Pct != 99 || tl.Samples != 1000 || tl.Beyond != 10 {
		t.Fatalf("tail = %+v, want value 990 at p99 of 1000", tl)
	}
	beyond := 0
	for _, x := range xs {
		if x > tl.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if got, want := tl.String(), "p99.00 of 1000 samples (10 beyond)"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	small, ok := tailOf([]float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11})
	if !ok || small.Value != 1 || small.Samples != 11 {
		t.Fatalf("11 samples: tail = %+v, want the minimum with 10 beyond", small)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Fatalf("quartiles of two = %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"ladm/internal/engine.(*eventHeap).pop":       "cpu.engine.heap",
		"ladm/internal/engine.eventHeap.less":         "cpu.engine.heap",
		"ladm/internal/engine.(*scheduler).drain":     "cpu.engine.heap",
		"ladm/internal/engine.funcEvent.run":          "cpu.engine.heap",
		"ladm/internal/engine.(*tbExec).execPhase":    "cpu.engine.core",
		"ladm/internal/engine.(*Engine).Run.func1":    "cpu.engine.core",
		"ladm/internal/engine.New":                    "cpu.engine.core",
		"ladm/internal/trace.(*Generator).Fill":       "cpu.trace",
		"ladm/internal/symbolic.(*Poly).Eval":         "cpu.symbolic",
		"ladm/internal/kir.(*Resolver).Lookup":        "cpu.kir",
		"ladm/internal/mem/cache.(*Cache).Access":     "cpu.cache",
		"ladm/internal/interconnect.(*Network).Send":  "cpu.interconnect",
		"ladm/internal/mem/dram.(*HBM).Access":        "cpu.dram",
		"ladm/internal/queueing.(*Resource).Serve":    "cpu.queueing",
		"ladm/internal/runtime.Prepare":               "cpu.plan",
		"ladm/internal/compiler.Classify":             "cpu.plan",
		"ladm/internal/mem/page.(*Alloc).Place":       "cpu.plan",
		"ladm/internal/sched.Assign":                  "cpu.plan",
		"ladm/internal/analytic.(*Runner).Sweep":      "cpu.analytic",
		"ladm/internal/simsvc.(*Server).handleRun":    "cpu.service",
		"ladm/internal/svcobs.Middleware.func1":       "cpu.service",
		"ladm/internal/simstore.(*Store).Get":         "cpu.service",
		"ladm/internal/fleet.(*Runner).ExecRequest":   "cpu.service",
		"ladm/internal/faultinject.(*Transport).Trip": "cpu.service",
		"net/http.(*conn).serve":                      "cpu.stdlib_net",
		"net/http/internal.(*chunkedReader).Read":     "cpu.stdlib_net",
		"net.(*netFD).Read":                           "cpu.stdlib_net",
		"encoding/json.(*encodeState).marshal":        "cpu.stdlib_net",
		"crypto/sha256.block":                         "cpu.stdlib_net",
		"crypto/internal/fips140/sha256.blockAMD64":   "cpu.stdlib_net",
		"syscall.Syscall":                             "cpu.stdlib_net",
		"internal/poll.(*FD).Write":                   "cpu.stdlib_net",
		"runtime.mallocgc":                            "cpu.go_runtime",
		"runtime.gcBgMarkWorker":                      "cpu.go_runtime",
		"internal/runtime/maps.(*Map).getWithKey":     "cpu.go_runtime",
		"ladm/internal/stats.(*Run).Clone":            "cpu.other",
		"ladm/internal/core.SimulateJobContext":       "cpu.other",
		"main.(*serveInstance).post":                  "cpu.other",
		"fmt.Fprintf":                                 "cpu.other",
		"sort.Slice[go.shape.int]":                    "cpu.other",
		"runtimeish.Fake":                             "cpu.other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestCPUSharesSumToOne profiles a little real work and checks that
// every sampled nanosecond lands in exactly one layer.
func TestCPUSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, cpuS, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpuS <= 0 {
		t.Fatalf("no CPU time sampled (x=%v)", x)
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if len(shares) != len(cpuLayers) {
		t.Fatalf("%d shares for %d layers", len(shares), len(cpuLayers))
	}
}

// TestDigestStableAcrossRuns simulates one cell twice and checks the
// canonical digest is identical, and survives the JSON round trip a
// served record takes.
func TestDigestStableAcrossRuns(t *testing.T) {
	job, err := simsvc.Request{Workload: "sq-gemm", Policy: "ladm", Machine: "hier", Scale: 128}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 2; i++ {
		run, err := core.SimulateJobContext(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		d, err := digest(run)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
		wire, err := json.Marshal(simsvc.NewRunPayload(run))
		if err != nil {
			t.Fatal(err)
		}
		back := new(stats.Run)
		if err := json.Unmarshal(wire, back); err != nil {
			t.Fatal(err)
		}
		if d2, _ := digest(back); d2 != d {
			t.Fatalf("digest changed across the JSON round trip: %s vs %s", d2, d)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("two simulations of one cell digest differently: %s vs %s", digests[0], digests[1])
	}
	p := pinSet{}
	p.put("cell", digests[0])
	run, _ := core.SimulateJobContext(context.Background(), job)
	if err := p.check("cell", run); err != nil {
		t.Fatal(err)
	}
	run.Cycles++
	if err := p.check("cell", run); err == nil {
		t.Fatal("a changed record passed its pin")
	}
	if err := p.check("other", run); err == nil {
		t.Fatal("an unpinned cell passed")
	}
}

func TestPinFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := pinSet{}
	p.put("b/x", strings.Repeat("ab", 32))
	p.put("a/y", strings.Repeat("cd", 32))
	if err := p.save(dir, "w", "header"); err != nil {
		t.Fatal(err)
	}
	got, err := loadPins(dir, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip: %v vs %v", got, p)
	}
	raw, _ := os.ReadFile(pinPath(dir, "w"))
	if !strings.HasPrefix(string(raw), "# header\na/y ") {
		t.Fatalf("pin file not sorted:\n%s", raw)
	}
}

func TestParseProm(t *testing.T) {
	p := parseProm(`# HELP x
simsvc_tier_escalations_total 3
simsvc_tier_escalations_total{reason="irregular"} 2
simsvc_tier_escalations_total{reason="custom"} 1
fleet_attempt_seconds_sum{endpoint="http://127.0.0.1:80",outcome="success"} 1.5
fleet_attempt_seconds_sum{endpoint="http://127.0.0.1:81",outcome="error"} 0.5
`)
	if got := p.sum("simsvc_tier_escalations_total", map[string]string{"reason": ""}); got != 3 {
		t.Fatalf("unlabeled total = %v, want 3", got)
	}
	if got := p.sum("fleet_attempt_seconds_sum", nil); got != 2 {
		t.Fatalf("sum over endpoints = %v, want 2", got)
	}
	if got := p.sum("fleet_attempt_seconds_sum", map[string]string{"outcome": "error"}); got != 0.5 {
		t.Fatalf("filtered sum = %v, want 0.5", got)
	}
}

func TestJudge(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	alt := []bool{true, false, true, false, true, false, true, false, true, false}
	if v := judge(parent, faster, alt, true, 0.1); v.label != "regressed" {
		t.Fatalf("20%% lower throughput: %s", v.label)
	}
	if v := judge(parent, faster, alt, false, 0.1); v.label != "improved" || v.wins != 10 {
		t.Fatalf("20%% lower latency: %+v", v)
	}
	if v := judge(parent, parent, alt, false, 0.1); v.label != "unchanged" {
		t.Fatalf("identical runs: %s", v.label)
	}
	if v := judge(parent[:9], faster[:9], alt[:9], false, 0.1); !strings.HasPrefix(v.label, "unresolved") {
		t.Fatalf("9 pairs: %s", v.label)
	}
	same := []bool{true, true, true, true, true, true, true, true, true, true}
	if v := judge(parent, faster, same, false, 0.1); !strings.HasPrefix(v.label, "unresolved") {
		t.Fatalf("parent always first: %s", v.label)
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if v := judge(noisy, noisy, alt, false, 0.1); !strings.HasPrefix(v.label, "unresolved") {
		t.Fatalf("spread beyond the bound: %s", v.label)
	}
}

func TestCompareRefusesMixedCoreCounts(t *testing.T) {
	a := &result{Env: envInfo{NProc: 2, GOMAXPROCS: 2}}
	b := &result{Env: envInfo{NProc: 4, GOMAXPROCS: 4}}
	if err := sameMachine([]*result{a, a}); err != nil {
		t.Fatal(err)
	}
	if err := sameMachine([]*result{a, b}); err == nil {
		t.Fatal("compared results from different core counts")
	}
}

// TestBenchmarkSpecMatchesOutput keeps BENCHMARK.json and the metrics
// the benchmark prints in step: same names, same units, same order.
func TestBenchmarkSpecMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name, Why string }  `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	var wantE2E, wantLayer []string
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, m.name+" "+m.unit)
	}
	for _, m := range perLayer() {
		wantLayer = append(wantLayer, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end:\n got %v\nwant %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layer, wantLayer) {
		t.Errorf("per_layer:\n got %v\nwant %v", layer, wantLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name+": "+w.Why)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: got %v, want %v", names, want)
	}
}
