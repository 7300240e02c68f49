package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
	"ladm/internal/trace"
)

// twoSlots runs at most two jobs at once, each on its caller's
// goroutine, as a two-worker simsvc.Pool does, and keeps the trace
// holder each job carries.
type twoSlots struct {
	slots chan struct{}

	mu    sync.Mutex
	tapes map[*trace.Tapes]int // jobs per holder
}

func newTwoSlots() *twoSlots {
	return &twoSlots{slots: make(chan struct{}, 2), tapes: map[*trace.Tapes]int{}}
}

func (p *twoSlots) Exec(ctx context.Context, j Job) (*stats.Run, error) {
	p.mu.Lock()
	p.tapes[j.Tapes]++
	p.mu.Unlock()
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	return SimulateJobContext(ctx, j)
}

// holder returns the one holder the jobs carried.
func (p *twoSlots) holder(t *testing.T) *trace.Tapes {
	t.Helper()
	if len(p.tapes) != 1 {
		t.Fatalf("the jobs carried %d trace holders, want 1", len(p.tapes))
	}
	for h := range p.tapes {
		if h == nil {
			t.Fatal("the jobs carried no trace holder")
		}
		return h
	}
	return nil
}

// sweepMatchesAlone sweeps jobs through a two-slot runner and checks
// every record against the job simulated on its own, with no holder.
func sweepMatchesAlone(t *testing.T, jobs []Job) *trace.Tapes {
	t.Helper()
	p := newTwoSlots()
	runs, err := Sweep(context.Background(), p, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, err := SimulateJob(j)
		if err != nil {
			t.Fatal(err)
		}
		gb, _ := json.Marshal(runs[i])
		wb, _ := json.Marshal(want)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s/%s on %d-byte pages: swept record differs from the job run alone:\nswept %s\nalone %s",
				j.Workload.Name, j.Policy.Name, j.Arch.PageBytes, gb, wb)
		}
	}
	return p.holder(t)
}

// TestSweepSharesTraces: a workload's plans share one trace holder
// through a two-slot pool. The two runs simulate side by side, so under
// -race this is the test that lets the race detector see phases
// published and replayed across goroutines. Plans with the same array
// layout replay each other's phases; a plan whose arrays lie on 8 KiB
// pages, and so at other addresses, never replays a phase of one on
// 4 KiB pages. Every record matches the job run alone either way.
func TestSweepSharesTraces(t *testing.T) {
	for _, name := range []string{"pagerank", "conv"} {
		spec, err := kernels.ByName(name, 256)
		if err != nil {
			t.Fatal(err)
		}
		hier := arch.DefaultHierarchical()
		big := hier
		big.PageBytes = 8192

		same := sweepMatchesAlone(t, []Job{
			{Workload: spec.W, Policy: rt.HCODA(), Arch: hier},
			{Workload: spec.W, Policy: rt.LASPRTwice(), Arch: hier},
			{Workload: spec.W, Policy: rt.LASPROnce(), Arch: hier},
		}).Stats()
		if same.Replayed == 0 || (same.Replayed+same.Generated)%3 != 0 {
			t.Errorf("%s: three runs of one layout replayed %d memory phases and generated %d, want some replayed",
				name, same.Replayed, same.Generated)
		}

		moved := sweepMatchesAlone(t, []Job{
			{Workload: spec.W, Policy: rt.HCODA(), Arch: hier},
			{Workload: spec.W, Policy: rt.HCODA(), Arch: big},
		}).Stats()
		if moved.Replayed != 0 || moved.Generated == 0 {
			t.Errorf("%s: runs on 4 and 8 KiB pages replayed %d memory phases and generated %d, want none replayed",
				name, moved.Replayed, moved.Generated)
		}
	}
}
