package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kir"
	"ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite golden telemetry files")

func simulateTel(t *testing.T, w *kir.Workload, cfg arch.Config,
	pol runtime.Policy, tel *simtel.Collector) *stats.Run {
	t.Helper()
	plan, err := runtime.Prepare(w, &cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	plan.Tel = tel
	run, err := New(plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestTelemetryDoesNotPerturbRun is the acceptance criterion that the
// sampler and tracer are pure observers: a fully instrumented run must
// report exactly the same simulation results as an uninstrumented one.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	w := vecAdd(128)
	cfg := arch.DefaultHierarchical()
	plain := simulate(t, w, cfg, runtime.LADM())
	tel := simtel.New(simtel.Config{SampleEvery: 100, Trace: true, TraceTx: true})
	traced := simulateTel(t, w, cfg, runtime.LADM(), tel)

	if traced.Telemetry == nil {
		t.Fatal("instrumented run has no telemetry summary")
	}
	traced.Telemetry = nil // the only field allowed to differ
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(traced)
	if !bytes.Equal(a, b) {
		t.Errorf("telemetry perturbed the run:\nplain  %s\ntraced %s", a, b)
	}
}

// TestSamplerDeterminism: two identical instrumented runs must emit
// byte-identical series and traces.
func TestSamplerDeterminism(t *testing.T) {
	w := vecAdd(128)
	cfg := arch.DefaultHierarchical()
	capture := func() (series, trace []byte) {
		tel := simtel.New(simtel.Config{SampleEvery: 250, Trace: true})
		simulateTel(t, w, cfg, runtime.LADM(), tel)
		var s, tr bytes.Buffer
		if err := tel.Series().WriteJSON(&s); err != nil {
			t.Fatal(err)
		}
		if err := tel.WriteTrace(&tr); err != nil {
			t.Fatal(err)
		}
		return s.Bytes(), tr.Bytes()
	}
	s1, t1 := capture()
	s2, t2 := capture()
	if !bytes.Equal(s1, s2) {
		t.Errorf("series differ between identical runs:\n%s\n---\n%s", s1, s2)
	}
	if !bytes.Equal(t1, t2) {
		t.Errorf("traces differ between identical runs")
	}
}

// TestTelemetrySummaryShape sanity-checks the provenance summary
// attached to the run record.
func TestTelemetrySummaryShape(t *testing.T) {
	tel := simtel.New(simtel.Config{SampleEvery: 100})
	run := simulateTel(t, stridedScan(256, 8), arch.DefaultHierarchical(),
		runtime.BaselineRR(), tel)
	sum := run.Telemetry
	if sum == nil {
		t.Fatal("no telemetry summary")
	}
	if sum.Samples <= 0 || sum.SampleInterval != 100 {
		t.Errorf("summary meta = %+v", sum)
	}
	if sum.PeakLinkUtil < sum.MeanLinkUtil {
		t.Errorf("peak link util %v below mean %v", sum.PeakLinkUtil, sum.MeanLinkUtil)
	}
	if sum.PeakLinkUtil < 0 || sum.PeakLinkUtil > 1 {
		t.Errorf("peak link util %v outside [0,1]", sum.PeakLinkUtil)
	}
	// The strided baseline pushes real off-node traffic, so some queue
	// somewhere must have been observed non-empty or at least named.
	if sum.MaxQueueDepth > 0 && sum.MaxQueueResource == "" {
		t.Errorf("max queue depth %v with no resource name", sum.MaxQueueDepth)
	}
	// A memory-bound scan keeps transactions in flight, so the sampler
	// must have seen MSHR pressure; without StealTBs no TB ever moves.
	if sum.PeakMSHR <= 0 {
		t.Errorf("peak mshr = %d, want > 0", sum.PeakMSHR)
	}
	if sum.MeanMSHR < 0 || float64(sum.PeakMSHR) < sum.MeanMSHR {
		t.Errorf("mshr mean %v vs peak %d inconsistent", sum.MeanMSHR, sum.PeakMSHR)
	}
	if sum.TBSteals != 0 {
		t.Errorf("tb steals = %d without StealTBs", sum.TBSteals)
	}
}

// TestSchedSamplesAccountAllTBs checks the scheduler series: per-node
// retired counts summed over all samples equal the grid, queue depth and
// running TBs drain to zero by the last sample, and batch progress ends
// at 1.
func TestSchedSamplesAccountAllTBs(t *testing.T) {
	tel := simtel.New(simtel.Config{SampleEvery: 100})
	run := simulateTel(t, vecAdd(64), arch.DefaultHierarchical(), runtime.LADM(), tel)
	samples := tel.Series().Samples
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	var retired int64
	for _, s := range samples {
		for _, sc := range s.Sched {
			retired += sc.Retired
			if sc.Steals != 0 {
				t.Errorf("steals = %d without StealTBs", sc.Steals)
			}
		}
	}
	if retired != int64(run.TBs) {
		t.Errorf("retired over series = %d, want %d", retired, run.TBs)
	}
	last := samples[len(samples)-1]
	for n, sc := range last.Sched {
		if sc.QueueDepth != 0 || sc.Running != 0 {
			t.Errorf("node %d not drained at final sample: %+v", n, sc)
		}
	}
	if last.Batch.Progress != 1 || last.Batch.DoneTBs != last.Batch.TotalTBs {
		t.Errorf("final batch sample = %+v", last.Batch)
	}
}

// TestStealTBsBalancesSkewedQueues pins the opt-in work-stealing path:
// with every TB packed onto node 0's queue, stealing lets other nodes'
// SMs execute and the steal counters report it; with stealing off the
// imbalance stands and nothing is counted.
func TestStealTBsBalancesSkewedQueues(t *testing.T) {
	w := vecAdd(96)
	cfg := arch.DefaultHierarchical()
	skewed := func(steal bool) *stats.Run {
		pol := runtime.BaselineRR()
		pol.StealTBs = steal
		plan, err := runtime.Prepare(w, &cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		// Concentrate the whole grid on node 0.
		all := []int32{}
		for _, q := range plan.Launches[0].Assignment.Queues {
			all = append(all, q...)
		}
		for i := range plan.Launches[0].Assignment.Queues {
			plan.Launches[0].Assignment.Queues[i] = nil
		}
		plan.Launches[0].Assignment.Queues[0] = all
		plan.Tel = simtel.New(simtel.Config{SampleEvery: 50})
		run, err := New(plan).Run()
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	stolen := skewed(true)
	if stolen.Telemetry == nil || stolen.Telemetry.TBSteals == 0 {
		t.Fatalf("no steals recorded on a fully skewed grid: %+v", stolen.Telemetry)
	}
	honest := skewed(false)
	if honest.Telemetry.TBSteals != 0 {
		t.Errorf("steals = %d with StealTBs off", honest.Telemetry.TBSteals)
	}
	// Both runs execute the same grid; stealing only changes who ran it.
	if stolen.TBs != honest.TBs {
		t.Errorf("tb counts differ: %d vs %d", stolen.TBs, honest.TBs)
	}
}

// TestGoldenChromeTrace locks the exact Chrome trace a tiny vecadd run
// emits. Regenerate with: go test ./internal/engine -run GoldenChromeTrace -update
func TestGoldenChromeTrace(t *testing.T) {
	tel := simtel.New(simtel.Config{Trace: true})
	simulateTel(t, vecAdd(8), arch.DefaultHierarchical(), runtime.LADM(), tel)
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []simtel.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	golden := filepath.Join("testdata", "vecadd_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden file (run with -update if intended)\ngot %d bytes, want %d",
			buf.Len(), len(want))
	}
}

// TestTxTraceDigest pins the Chrome trace of the same tiny vecadd run
// with per-transaction spans on, so the "cat":"tx" events the golden
// above leaves out are locked too. Only the trace's sha256 is kept,
// not another golden file.
func TestTxTraceDigest(t *testing.T) {
	tel := simtel.New(simtel.Config{Trace: true, TraceTx: true})
	simulateTel(t, vecAdd(8), arch.DefaultHierarchical(), runtime.LADM(), tel)
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"cat":"tx"`)) {
		t.Fatal(`trace has no "cat":"tx" events`)
	}
	const want = "50e04606c90680fcb0ee2b3f4c9b4f202903865ed925e1551e886803ea8f422d"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("tx trace sha256 = %s (%d bytes), want %s", got, buf.Len(), want)
	}
}
