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
	"ladm/internal/trace"
)

// countingRunner counts the jobs that reach Inner, per workload, and
// keeps the trace holders they carry.
type countingRunner struct {
	Inner core.Runner

	mu    sync.Mutex
	calls map[string]int
	tapes map[string]map[*trace.Tapes]bool
}

func (c *countingRunner) Exec(ctx context.Context, j core.Job) (*stats.Run, error) {
	c.mu.Lock()
	c.calls[j.Workload.Name]++
	if c.tapes[j.Workload.Name] == nil {
		c.tapes[j.Workload.Name] = map[*trace.Tapes]bool{}
	}
	c.tapes[j.Workload.Name][j.Tapes] = true
	c.mu.Unlock()
	return c.Inner.Exec(ctx, j)
}

// TestFig9SharedRunsMatchDirect: a Fig. 9 campaign simulates four of its
// five cells per workload, because each ladm cell shares its CRB twin's
// run, and every record it returns is byte-identical to that cell
// simulated on its own, the ladm cells included. pagerank is ITL (the
// twin is lasp+ronce) and conv is RCL (the twin is lasp+rtwice). The
// four runs of a workload share one trace holder, and replay from it
// every memory phase but those the first two, which the pool runs side
// by side, both reach before either publishes it.
func TestFig9SharedRunsMatchDirect(t *testing.T) {
	const scale = 64
	names := []string{"pagerank", "conv"}
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: 2})
	defer pool.Close()
	counter := &countingRunner{Inner: pool, calls: map[string]int{}, tapes: map[string]map[*trace.Tapes]bool{}}
	res, err := Run("fig9", Options{Scale: scale, Workloads: names, Runner: counter})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if n := counter.calls[name]; n != 4 {
			t.Errorf("%s: %d cells reached the runner, want 4", name, n)
		}
		if len(counter.tapes[name]) != 1 {
			t.Fatalf("%s: the cells carried %d trace holders, want 1", name, len(counter.tapes[name]))
		}
		for h := range counter.tapes[name] {
			if h == nil {
				t.Fatalf("%s: the cells carried no trace holder", name)
			}
			// The four runs have the same memory phases, and each of the
			// last two starts when one of the first two has finished, so
			// it replays all of its phases.
			st := h.Stats()
			if total := st.Replayed + st.Generated; total == 0 || total%4 != 0 || st.Replayed < total/2 {
				t.Errorf("%s: the runs replayed %d memory phases and generated %d, want four runs' worth, at least half replayed",
					name, st.Replayed, st.Generated)
			}
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
