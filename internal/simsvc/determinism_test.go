package simsvc_test

// The determinism guard: running a paper-figure sweep through the worker
// pool at parallelism 4 must produce byte-identical measurement records
// to the pool-free path (core.RunFunc over the pipeline). This is what
// lets cmd/ladmbench fan the figure suite across cores without changing
// a single reported number.

import (
	"encoding/json"
	"testing"
	"time"

	"ladm/internal/core"
	"ladm/internal/experiments"
	"ladm/internal/simsvc"
)

// figureResults runs the Figure 9/10 sweep on a workload subset with the
// given runner and returns the rendered text and the records as JSON.
func figureResults(t *testing.T, runner core.Runner) (string, []byte) {
	t.Helper()
	o := experiments.Options{
		Scale:     16,
		Workloads: []string{"vecadd", "sq-gemm"},
		Runner:    runner,
	}
	fig9, fig10, err := experiments.Fig9And10(o)
	if err != nil {
		t.Fatal(err)
	}
	records, err := json.Marshal(fig9.Runs)
	if err != nil {
		t.Fatal(err)
	}
	return fig9.Text + fig10.Text, records
}

func TestPoolSweepMatchesSequential(t *testing.T) {
	seqText, seqRecords := figureResults(t, core.RunFunc(core.SimulateJobContext))

	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 4})
	defer pool.Close()
	poolText, poolRecords := figureResults(t, pool)

	if seqText != poolText {
		t.Errorf("rendered figures differ between sequential and pooled runs:\n--- sequential ---\n%s\n--- pool ---\n%s",
			seqText, poolText)
	}
	if string(seqRecords) != string(poolRecords) {
		t.Error("measurement records differ between sequential and pooled runs")
	}
}

// TestPoolWallClockInfo logs the wall-clock comparison between the
// pool-free path and the pool (informational: the speedup tracks the
// runner's core count, so no threshold is asserted here).
func TestPoolWallClockInfo(t *testing.T) {
	if testing.Short() {
		t.Skip("timing info only")
	}
	start := time.Now()
	figureResults(t, core.RunFunc(core.SimulateJobContext))
	seq := time.Since(start)

	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 4})
	defer pool.Close()
	start = time.Now()
	figureResults(t, pool)
	par := time.Since(start)

	speedup := float64(seq) / float64(par)
	t.Logf("pool-free %v, pool(4) %v, speedup %.2fx (GOMAXPROCS-bound)", seq, par, speedup)
}
