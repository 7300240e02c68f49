package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
	"ladm/internal/trace"
)

// recycle runs plan on e the way Run does, through the seam between New
// and the pool, which sync.Pool alone does not let a test pin: it builds
// over e, simulates, checks the books, releases the pages and retires e
// for the next call. It returns the run and checkBooks' verdict.
//
// A built engine's event queue must start empty at time 0. The records
// do not show a stale last key, because a kernel's first events all
// share its start time, so recycle checks the queue itself.
func recycle(t *testing.T, e *Engine, plan *runtime.Plan) (*stats.Run, error) {
	t.Helper()
	build(plan, e)
	if h := &e.sched.events; h.last != 0 || h.mask != 0 {
		t.Fatalf("%s/%s/%s: built over a retired engine, the event queue's last key is %#x and its bucket mask %#x",
			plan.Workload.Name, plan.Policy.Name, plan.Cfg.Name, h.last, h.mask)
	}
	run, err := e.simulate()
	if err != nil {
		t.Fatalf("%s/%s/%s: %v", plan.Workload.Name, plan.Policy.Name, plan.Cfg.Name, err)
	}
	if err := e.poolBooks(); err != nil {
		t.Fatalf("%s/%s/%s: cannot retire: %v", plan.Workload.Name, plan.Policy.Name, plan.Cfg.Name, err)
	}
	books := e.checkBooks()
	e.release()
	e.retire()
	return run, books
}

// TestRecycledEngineMatchesFresh drives one engine through a sequence
// of cells that crosses every registered machine, growing and shrinking
// its arrays, and checks that each record, telemetry included, encodes
// to the same bytes as a fresh engine's, with the same books. Midway, a
// cell is interrupted: Run must not retire that engine, and the
// sequence goes on with a fresh one, as New would. One cell samples
// telemetry and traces every transaction, and its trace and sample
// series must match a fresh engine's too. After every retirement the
// engine must hold no reference into the cell and no transaction
// buffer.
func TestRecycledEngineMatchesFresh(t *testing.T) {
	workloads := []string{"sq-gemm", "vecadd", "lbm", "random-loc"}
	scales := []int{64, 256}
	policies := runtime.All()
	e := new(Engine)
	for i, m := range arch.Names() {
		spec, err := kernels.ByName(workloads[i%len(workloads)], scales[i/len(workloads)%len(scales)])
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := arch.ByName(m)
		if err != nil {
			t.Fatal(err)
		}
		pol := policies[i%len(policies)]
		traced := i == 6
		prepare := func() *runtime.Plan {
			plan, err := runtime.Prepare(spec.W, &cfg, pol)
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				plan.Tel = simtel.New(simtel.Config{SampleEvery: 100, Trace: true, TraceTx: true})
			}
			return plan
		}
		name := fmt.Sprintf("%s/%s/%s", spec.W.Name, pol.Name, m)

		if i == 4 {
			plan := prepare()
			stop := make(chan struct{})
			close(stop)
			plan.Interrupt = stop
			build(plan, e)
			if _, err := e.Run(); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("%s with a closed interrupt: err %v, want ErrInterrupted", name, err)
			}
			if e.plan == nil {
				t.Fatalf("%s: Run retired an interrupted engine", name)
			}
			e = new(Engine)
		}

		freshPlan := prepare()
		fresh := build(freshPlan, new(Engine))
		want, err := fresh.simulate()
		if err != nil {
			t.Fatalf("%s on a fresh engine: %v", name, err)
		}
		wantBooks := fmt.Sprint(fresh.checkBooks())
		plan := prepare()
		plan.Tapes = new(trace.Tapes) // the recycled cell records its trace
		got, books := recycle(t, e, plan)
		if g, w := fmt.Sprint(books), wantBooks; g != w {
			t.Errorf("%s: recycled books %s, fresh %s", name, g, w)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: recycled record differs from a fresh one\nrecycled %s\nfresh    %s", name, gotJSON, wantJSON)
		}
		if traced {
			if got.Telemetry == nil {
				t.Errorf("%s: no telemetry summary", name)
			}
			var gotTrace, wantTrace bytes.Buffer
			if err := plan.Tel.WriteTrace(&gotTrace); err != nil {
				t.Fatal(err)
			}
			if err := freshPlan.Tel.WriteTrace(&wantTrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
				t.Errorf("%s: recycled trace (%d bytes) differs from a fresh one (%d bytes)", name, gotTrace.Len(), wantTrace.Len())
			}
			gotSeries, err := json.Marshal(plan.Tel.Series())
			if err != nil {
				t.Fatal(err)
			}
			wantSeries, err := json.Marshal(freshPlan.Tel.Series())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotSeries, wantSeries) {
				t.Errorf("%s: recycled sample series differs from a fresh one", name)
			}
		}

		if e.cfg != nil || e.plan != nil || e.run != nil || e.tel != nil || e.net != nil || e.residency != nil ||
			e.sched.interrupt != nil || e.sched.sampleFn != nil || e.tape != nil || !reflect.ValueOf(e.rec).IsZero() {
			t.Errorf("%s: retired engine still references its cell", name)
		}
		for _, x := range e.tbFree.free {
			if x.buf != nil {
				t.Fatalf("%s: retired engine holds a %d-transaction buffer", name, cap(x.buf))
			}
		}
	}
}

// TestConcurrentRunsShareThePool runs cells on several goroutines at
// once through New and Run, so retired engines cross goroutines through
// the pool, and checks every record against the same cell run alone on
// a fresh engine. Run it under -race: it is the test that lets the race
// detector see engines handed between goroutines.
func TestConcurrentRunsShareThePool(t *testing.T) {
	type cell struct {
		w, m string
		want []byte
	}
	var cells []cell
	for _, w := range []string{"sq-gemm", "vecadd", "random-loc"} {
		for _, m := range []string{"hier", "monolithic", "dgx"} {
			cells = append(cells, cell{w: w, m: m})
		}
	}
	prepare := func(c cell) *runtime.Plan {
		spec, err := kernels.ByName(c.w, 256)
		if err != nil {
			panic(err)
		}
		cfg, err := arch.ByName(c.m)
		if err != nil {
			panic(err)
		}
		plan, err := runtime.Prepare(spec.W, &cfg, runtime.LADM())
		if err != nil {
			panic(err)
		}
		return plan
	}
	for i := range cells {
		run, err := build(prepare(cells[i]), new(Engine)).simulate()
		if err != nil {
			t.Fatal(err)
		}
		if cells[i].want, err = json.Marshal(run); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(cells) {
				c := cells[(w+r)%len(cells)]
				run, err := New(prepare(c)).Run()
				if err != nil {
					t.Errorf("%s on %s: %v", c.w, c.m, err)
					return
				}
				if got, _ := json.Marshal(run); !bytes.Equal(got, c.want) {
					t.Errorf("%s on %s, worker %d: record differs from a fresh engine's", c.w, c.m, w)
				}
			}
		}()
	}
	wg.Wait()
}
