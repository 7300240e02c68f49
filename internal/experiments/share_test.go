package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// countingRunner counts the jobs that reach Inner, per workload.
type countingRunner struct {
	Inner core.Runner

	mu    sync.Mutex
	calls map[string]int
}

func (c *countingRunner) Exec(ctx context.Context, j core.Job) (*stats.Run, error) {
	c.mu.Lock()
	c.calls[j.Workload.Name]++
	c.mu.Unlock()
	return c.Inner.Exec(ctx, j)
}

// TestFig9SharedRunsMatchDirect: a Fig. 9 campaign simulates four of its
// five cells per workload, because each ladm cell shares its CRB twin's
// run, and every record it returns is byte-identical to that cell
// simulated on its own, the ladm cells included. pagerank is ITL (the
// twin is lasp+ronce) and conv is RCL (the twin is lasp+rtwice).
func TestFig9SharedRunsMatchDirect(t *testing.T) {
	const scale = 64
	names := []string{"pagerank", "conv"}
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 2})
	defer pool.Close()
	counter := &countingRunner{Inner: pool, calls: map[string]int{}}
	res, err := Run("fig9", Options{Scale: scale, Workloads: names, Runner: counter})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if n := counter.calls[name]; n != 4 {
			t.Errorf("%s: %d cells reached the runner, want 4", name, n)
		}
	}
	cells := map[string]int{}
	for _, got := range res.Runs {
		cells[got.Workload+"/"+got.Policy]++
	}
	for _, name := range names {
		for _, pol := range []string{"h-coda", "lasp+rtwice", "lasp+ronce", "ladm", "monolithic"} {
			if n := cells[name+"/"+pol]; n != 1 {
				t.Errorf("%s/%s: %d records, want 1", name, pol, n)
			}
		}
	}
	for _, got := range res.Runs {
		spec, err := kernels.ByName(got.Workload, scale)
		if err != nil {
			t.Fatal(err)
		}
		job := core.Job{Workload: spec.W, Arch: arch.DefaultHierarchical()}
		if got.Policy == "monolithic" {
			job.Policy, job.Arch = rt.KernelWide(), arch.MonolithicGPU()
		} else if job.Policy, err = rt.ByName(got.Policy); err != nil {
			t.Fatal(err)
		}
		want, err := core.SimulateJob(job)
		if err != nil {
			t.Fatal(err)
		}
		want.Policy = got.Policy // the monolithic cell's label
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s/%s: campaign record differs from the cell simulated alone:\ngot  %s\nwant %s",
				got.Workload, got.Policy, gb, wb)
		}
	}
}
