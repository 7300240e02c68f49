// Package core ties the paper's system together: compile (index analysis,
// locality table), plan (LASP placement, scheduling, CRB caching), and
// simulate (the event-driven NUMA-GPU engine). One call — Simulate — is
// the whole LADM pipeline of Figure 5 for one workload under one policy on
// one machine; Sweep fans combinations out across CPU cores for the
// benchmark harness.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ladm/internal/arch"
	"ladm/internal/engine"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

// Job names one simulation: a workload, a policy, and a machine.
type Job struct {
	Workload *kir.Workload
	Policy   rt.Policy
	Arch     arch.Config
	// Label tags the run (defaults to the policy name).
	Label string
	// Tel, when non-nil, collects telemetry for the run (time series
	// and/or trace spans); it never affects the simulated results.
	Tel *simtel.Collector
	// Deprecated: ignored; the event core is sequential.
	Parallel int
}

// Simulate runs the full pipeline for one job.
func Simulate(w *kir.Workload, cfg arch.Config, pol rt.Policy) (*stats.Run, error) {
	return SimulateJob(Job{Workload: w, Arch: cfg, Policy: pol})
}

// SimulateJob runs the full pipeline for one job, threading its
// telemetry collector (if any) through to the engine.
func SimulateJob(j Job) (*stats.Run, error) {
	return SimulateJobContext(context.Background(), j)
}

// SimulateJobContext runs the full pipeline for one job, aborting the
// engine when ctx is canceled or its deadline expires: the engine polls
// ctx.Done() every few tens of thousands of events, so a pathological
// job releases its worker quickly instead of simulating to completion.
// A background context compiles the check away (Done() is nil).
func SimulateJobContext(ctx context.Context, j Job) (*stats.Run, error) {
	plan, err := rt.Prepare(j.Workload, &j.Arch, j.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: prepare %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	plan.Tel = j.Tel
	plan.Interrupt = ctx.Done()
	run, err := engine.New(plan).Run()
	if err != nil {
		if errors.Is(err, engine.ErrInterrupted) {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
		}
		return nil, fmt.Errorf("core: simulate %s/%s: %w", j.Workload.Name, j.Policy.Name, err)
	}
	return run, nil
}

// Sweep simulates all jobs, fanning out across CPUs, and returns results
// in job order. The first error encountered is returned.
func Sweep(jobs []Job, workers int) ([]*stats.Run, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	results := make([]*stats.Run, len(jobs))
	errs := make([]error, len(jobs))
	next := make(chan int)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				run, err := Simulate(j.Workload, j.Arch, j.Policy)
				if err != nil {
					errs[i] = err
					continue
				}
				if j.Label != "" {
					run.Policy = j.Label
				}
				results[i] = run
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
