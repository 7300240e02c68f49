package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/core"
	"ladm/internal/engine"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// span is one interval the benchmark timed around a public call. Spans
// of one operation share the operation's id as Parent (or ID).
type span struct {
	Name, Cat, Track string
	ID, Parent       string
	Start            time.Time
	Dur              time.Duration
}

// tracer keeps spans in memory and writes them as a Chrome trace when
// the run ends. A nil *tracer records nothing.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
	slots []bool // busy flags of the "sim-N" tracks
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() string {
	if t == nil {
		return ""
	}
	return "op-" + strconv.FormatUint(t.nextID.Add(1), 10)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// slot claims the lowest free simulation track, so spans of concurrent
// simulations never overlap on one track.
func (t *tracer) slot() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, busy := range t.slots {
		if !busy {
			t.slots[i] = true
			return i
		}
	}
	t.slots = append(t.slots, true)
	return len(t.slots) - 1
}

func (t *tracer) release(i int) {
	t.mu.Lock()
	t.slots[i] = false
	t.mu.Unlock()
}

// writeChrome writes the spans in Chrome trace-event JSON (loadable in
// Perfetto and chrome://tracing), one thread per track.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for _, s := range t.spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": s.Track}})
		}
		args := map[string]any{}
		if s.ID != "" {
			args["span_id"] = s.ID
		}
		if s.Parent != "" {
			args["parent_span_id"] = s.Parent
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Cat, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	werr := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if ferr := w.Flush(); werr == nil {
		werr = ferr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// simHooks is the pool's simulate function. Untraced it calls
// core.SimulateJobContext — the pool's default — and only times the
// call. Traced it runs the same two steps itself, runtime.Prepare then
// (*engine.Engine).Run, inside spans that name the operation (the
// request ID the job's context carries) as parent.
type simHooks struct {
	tr *tracer

	mu      sync.Mutex
	cellMs  []float64 // per-simulation host latency
	prepare time.Duration
	engine  time.Duration
	cells   int
	instrs  uint64 // warp instructions of the simulated records
}

func (h *simHooks) simulate(ctx context.Context, j core.Job) (*stats.Run, error) {
	if h.tr == nil {
		t0 := time.Now()
		run, err := core.SimulateJobContext(ctx, j)
		h.note(time.Since(t0), 0, 0, run)
		return run, err
	}
	track := h.tr.slot()
	defer h.tr.release(track)
	name := "sim-" + strconv.Itoa(track)
	parent := svcobs.RequestIDFrom(ctx)
	t0 := time.Now()
	plan, err := rt.Prepare(j.Workload, &j.Arch, j.Policy)
	t1 := time.Now()
	h.tr.add(span{Name: "runtime.Prepare", Cat: "plan", Track: name, Parent: parent, Start: t0, Dur: t1.Sub(t0)})
	if err != nil {
		return nil, fmt.Errorf("prepare %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	plan.Tel = j.Tel
	plan.Interrupt = ctx.Done()
	plan.Parallel = j.Parallel
	run, err := engine.New(plan).Run()
	t2 := time.Now()
	h.tr.add(span{Name: "engine.Run", Cat: "engine", Track: name, Parent: parent, Start: t1, Dur: t2.Sub(t1)})
	if err != nil {
		if errors.Is(err, engine.ErrInterrupted) && ctx.Err() != nil {
			err = ctx.Err()
		}
		return nil, fmt.Errorf("simulate %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	h.note(t2.Sub(t0), t1.Sub(t0), t2.Sub(t1), run)
	return run, nil
}

func (h *simHooks) note(total, prepare, eng time.Duration, run *stats.Run) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cellMs = append(h.cellMs, float64(total.Nanoseconds())/1e6)
	h.prepare += prepare
	h.engine += eng
	if run != nil {
		h.cells++
		h.instrs += run.WarpInstrs
	}
}

// reset clears the counters between setup and the timed phase.
func (h *simHooks) reset() {
	h.mu.Lock()
	h.cellMs, h.prepare, h.engine, h.cells, h.instrs = nil, 0, 0, 0, 0
	h.mu.Unlock()
}
