package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/trace"
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

// counter is a RunFunc that simulates nothing: it records every job that
// reaches Exec and the record it returned, and fails the jobs fail names.
type counter struct {
	mu   sync.Mutex
	jobs []Job
	runs []*stats.Run
	fail func(Job) error
}

func (c *counter) exec(_ context.Context, j Job) (*stats.Run, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobs = append(c.jobs, j)
	if c.fail != nil {
		if err := c.fail(j); err != nil {
			return nil, err
		}
	}
	run := &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name, Arch: j.Arch.Name,
		Cycles: float64(len(c.jobs))}
	c.runs = append(c.runs, run)
	return run, nil
}

// twinWorkloads returns pagerank (ITL: CRB resolves to RONCE) and conv
// (RCL: CRB resolves to RTWICE).
func twinWorkloads(t *testing.T) (itl, rcl *kir.Workload) {
	t.Helper()
	pr, err := kernels.ByName("pagerank", 64)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := kernels.ByName("conv", 64)
	if err != nil {
		t.Fatal(err)
	}
	return pr.W, conv.W
}

// TestSweepRunsEachPlanOnce: the jobs of one plan reach Exec once, as the
// first of them in job order, unchanged but for the trace holder all of
// its workload's plans share; the others get the runner's
// record when they name the same policy unlabelled, and a clone with
// their own name otherwise. The runner's records are never changed.
func TestSweepRunsEachPlanOnce(t *testing.T) {
	itl, rcl := twinWorkloads(t)
	hier, mono := arch.DefaultHierarchical(), arch.MonolithicGPU()
	var jobs []Job
	for _, w := range []*kir.Workload{itl, rcl} {
		jobs = append(jobs,
			Job{Workload: w, Policy: rt.HCODA(), Arch: hier},
			Job{Workload: w, Policy: rt.LASPRTwice(), Arch: hier},
			Job{Workload: w, Policy: rt.LASPROnce(), Arch: hier},
			Job{Workload: w, Policy: rt.LADM(), Arch: hier},
			Job{Workload: w, Policy: rt.LADM(), Arch: hier, Label: "again"},
			Job{Workload: w, Policy: rt.LASPROnce(), Arch: hier},
			Job{Workload: w, Policy: rt.LADM(), Arch: mono},
		)
	}
	c := &counter{}
	runs, err := Sweep(context.Background(), RunFunc(c.exec), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Per workload: h-coda, lasp+rtwice, lasp+ronce and ladm on mono.
	lead := []int{0, 1, 2, 6, 7, 8, 9, 13}
	if len(c.jobs) != len(lead) {
		t.Fatalf("Exec ran %d jobs, want %d", len(c.jobs), len(lead))
	}
	ran := map[int]*stats.Run{}
	holders := map[*kir.Workload]*trace.Tapes{}
	for _, j := range c.jobs {
		if j.Tapes == nil {
			t.Fatalf("%s/%s reached Exec without the workload's trace holder", j.Workload.Name, j.Policy.Name)
		}
		if h, ok := holders[j.Workload]; ok && h != j.Tapes {
			t.Errorf("%s/%s reached Exec with another holder than its workload's other plans", j.Workload.Name, j.Policy.Name)
		}
		holders[j.Workload] = j.Tapes
	}
	if holders[itl] == holders[rcl] {
		t.Error("two workloads share one trace holder")
	}
	for _, i := range lead {
		k := -1
		for n, j := range c.jobs {
			j.Tapes = nil // the one field Sweep sets
			if reflect.DeepEqual(j, jobs[i]) {
				k = n
			}
		}
		if k < 0 {
			t.Fatalf("job %d (%s/%s) never reached Exec as given", i, jobs[i].Workload.Name, jobs[i].Policy.Name)
		}
		ran[i] = c.runs[k]
	}
	share := []int{ // the job each job's record comes from
		0, 1, 2, 2, 2, 2, 6, // pagerank: ladm shares lasp+ronce
		7, 8, 9, 8, 8, 9, 13, // conv: ladm shares lasp+rtwice
	}
	for i, run := range runs {
		want := *ran[share[i]]
		name := jobs[i].Policy.Name
		if jobs[i].Label != "" {
			name = jobs[i].Label
		}
		asIs := jobs[i].Label == "" && name == jobs[share[i]].Policy.Name
		if (run == ran[share[i]]) != asIs {
			t.Errorf("job %d: record is the runner's: %v, want %v", i, run == ran[share[i]], asIs)
		}
		want.Policy = name
		if !reflect.DeepEqual(*run, want) {
			t.Errorf("job %d: record %+v, want %+v", i, *run, want)
		}
	}
	for n, r := range c.runs {
		if r.Policy != c.jobs[n].Policy.Name {
			t.Errorf("the runner's record for %s was renamed %s", c.jobs[n].Policy.Name, r.Policy)
		}
	}
}

// TestSweepTelemetryRunsAlone: a job with a collector never shares a run,
// and never lends its own.
func TestSweepTelemetryRunsAlone(t *testing.T) {
	itl, _ := twinWorkloads(t)
	cfg := arch.DefaultHierarchical()
	tel := simtel.New(simtel.Config{Trace: true})
	jobs := []Job{
		{Workload: itl, Policy: rt.LADM(), Arch: cfg, Tel: tel},
		{Workload: itl, Policy: rt.LASPROnce(), Arch: cfg},
		{Workload: itl, Policy: rt.LASPROnce(), Arch: cfg, Tel: tel},
		{Workload: itl, Policy: rt.LADM(), Arch: cfg},
	}
	c := &counter{}
	runs, err := Sweep(context.Background(), RunFunc(c.exec), jobs)
	if err != nil {
		t.Fatal(err)
	}
	withTel := 0
	for _, j := range c.jobs {
		if j.Tel == tel {
			withTel++
		}
	}
	if len(c.jobs) != 3 || withTel != 2 {
		t.Fatalf("Exec ran %d jobs, %d with a collector; want 3, 2 with one", len(c.jobs), withTel)
	}
	if runs[0].Cycles == runs[3].Cycles || runs[2].Cycles == runs[1].Cycles || runs[3].Cycles != runs[1].Cycles {
		t.Errorf("records %v: want jobs 0 and 2 on runs of their own, job 3 on job 1's", cycles(runs))
	}
}

// TestSweepNilWorkloadsRunAlone: jobs with no workload never share, even
// when every other field is equal.
func TestSweepNilWorkloadsRunAlone(t *testing.T) {
	var calls int
	var mu sync.Mutex
	r := RunFunc(func(_ context.Context, j Job) (*stats.Run, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return &stats.Run{Cycles: float64(calls)}, nil
	})
	runs, err := Sweep(context.Background(), r, []Job{{Policy: rt.LADM()}, {Policy: rt.LADM()}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || runs[0].Cycles == runs[1].Cycles {
		t.Errorf("Exec calls = %d, records %v; want one run per job", calls, cycles(runs))
	}
}

// TestSweepSharedRunFailure: a failed run fails every job that shares it,
// and the error is still the earliest failed job's.
func TestSweepSharedRunFailure(t *testing.T) {
	itl, rcl := twinWorkloads(t)
	cfg := arch.DefaultHierarchical()
	for _, failing := range []string{"lasp+ronce", "ladm"} {
		c := &counter{fail: func(j Job) error {
			if j.Workload == itl && j.Policy.Name == failing {
				return errors.New(failing + " failed")
			}
			if j.Workload == rcl && j.Policy.Name == "ladm" {
				return errors.New("later job failed")
			}
			return nil
		}}
		jobs := []Job{
			{Workload: rcl, Policy: rt.HCODA(), Arch: cfg},
			{Workload: itl, Policy: rt.LASPROnce(), Arch: cfg},
			{Workload: itl, Policy: rt.LADM(), Arch: cfg},
			{Workload: rcl, Policy: rt.LADM(), Arch: cfg},
		}
		if failing == "ladm" {
			jobs[1], jobs[2] = jobs[2], jobs[1]
		}
		runs, err := Sweep(context.Background(), RunFunc(c.exec), jobs)
		if err == nil || err.Error() != failing+" failed" || runs != nil {
			t.Errorf("%s failing: Sweep = %v, %v; want no records and its error", failing, runs, err)
		}
		if len(c.jobs) != 3 {
			t.Errorf("%s failing: Exec ran %d jobs, want 3", failing, len(c.jobs))
		}
	}
}

func cycles(runs []*stats.Run) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Cycles
	}
	return out
}

// TestSweepInvalidWorkloadFailsInExec: a CRB job's workload is analyzed
// only once it validates, so a malformed custom workload fails in Exec
// with its own error instead of panicking in the analysis.
func TestSweepInvalidWorkloadFailsInExec(t *testing.T) {
	spec, err := kernels.ByName("vecadd", 16)
	if err != nil {
		t.Fatal(err)
	}
	spec.W.Launches[0].Kernel.Accesses[0].Index = nil
	cfg := arch.DefaultHierarchical()
	jobs := []Job{
		{Workload: spec.W, Policy: rt.LADM(), Arch: cfg},
		{Workload: spec.W, Policy: rt.LASPRTwice(), Arch: cfg},
	}
	if _, err := Sweep(context.Background(), RunFunc(SimulateJobContext), jobs); err == nil ||
		!strings.Contains(err.Error(), "has no index") {
		t.Errorf("Sweep error = %v, want the workload's validation error", err)
	}
}
