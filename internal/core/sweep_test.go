package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ladm/internal/kir"
	"ladm/internal/stats"
)

// namedJobs returns n jobs whose workloads are named j00, j01, ...
func namedJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: &kir.Workload{Name: fmt.Sprintf("j%02d", i)}}
	}
	return jobs
}

// TestSweepOrderUnderShuffledCompletion: jobs finish in an order unlike
// job order, and the records still come back in job order.
func TestSweepOrderUnderShuffledCompletion(t *testing.T) {
	const n = 16
	var (
		mu       sync.Mutex
		finished []string
	)
	r := RunFunc(func(_ context.Context, j Job) (*stats.Run, error) {
		var i int
		fmt.Sscanf(j.Workload.Name, "j%d", &i)
		time.Sleep(time.Duration((i*7)%n) * 2 * time.Millisecond)
		mu.Lock()
		finished = append(finished, j.Workload.Name)
		mu.Unlock()
		return &stats.Run{Workload: j.Workload.Name}, nil
	})
	jobs := namedJobs(n)
	runs, err := Sweep(context.Background(), r, jobs)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := false
	for i, run := range runs {
		if run.Workload != jobs[i].Workload.Name {
			t.Errorf("runs[%d] = %s, want %s", i, run.Workload, jobs[i].Workload.Name)
		}
		if finished[i] != jobs[i].Workload.Name {
			shuffled = true
		}
	}
	if !shuffled {
		t.Fatalf("jobs finished in job order %v; the test proved nothing", finished)
	}
}

// TestSweepReturnsEarliestJobError: with two failing jobs, the error is
// the earlier job's even when the later one fails first in time.
func TestSweepReturnsEarliestJobError(t *testing.T) {
	r := RunFunc(func(_ context.Context, j Job) (*stats.Run, error) {
		switch j.Workload.Name {
		case "j01":
			time.Sleep(50 * time.Millisecond)
			return nil, errors.New("j01 failed")
		case "j03":
			return nil, errors.New("j03 failed")
		}
		return &stats.Run{Workload: j.Workload.Name}, nil
	})
	runs, err := Sweep(context.Background(), r, namedJobs(5))
	if err == nil || err.Error() != "j01 failed" {
		t.Fatalf("Sweep error = %v, want j01's", err)
	}
	if runs != nil {
		t.Errorf("failed sweep returned records %v", runs)
	}
}

// TestSweepSubmitsInJobOrder: jobs reach Exec in job order. Goroutines
// claim indices from a shared counter, so it holds whichever goroutine
// the scheduler starts first (one P keeps claim and arrival adjacent).
func TestSweepSubmitsInJobOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		mu      sync.Mutex
		arrived []string
	)
	r := RunFunc(func(_ context.Context, j Job) (*stats.Run, error) {
		mu.Lock()
		arrived = append(arrived, j.Workload.Name)
		mu.Unlock()
		return &stats.Run{}, nil
	})
	jobs := namedJobs(32)
	if _, err := Sweep(context.Background(), r, jobs); err != nil {
		t.Fatal(err)
	}
	for i, name := range arrived {
		if name != jobs[i].Workload.Name {
			t.Fatalf("arrival order %v, want job order", arrived)
		}
	}
}

// TestSweepLabelsClone: a labelled job's record is a relabelled clone;
// the executor's record — possibly a shared cache entry — is untouched.
func TestSweepLabelsClone(t *testing.T) {
	shared := &stats.Run{Workload: "w", Policy: "ladm"}
	r := RunFunc(func(context.Context, Job) (*stats.Run, error) { return shared, nil })
	runs, err := Sweep(context.Background(), r, []Job{{Label: "tagged"}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Policy != "tagged" || runs[0] == shared {
		t.Errorf("labelled record = %+v (shared: %v), want a clone tagged", runs[0], runs[0] == shared)
	}
	if runs[1] != shared || shared.Policy != "ladm" {
		t.Errorf("unlabelled record = %+v, shared policy %q; want the executor's record untouched", runs[1], shared.Policy)
	}
}
