// Package core ties the paper's system together: compile (index analysis,
// locality table), plan (LASP placement, scheduling, CRB caching), and
// simulate (the event-driven NUMA-GPU engine). One call — Simulate — is
// the whole LADM pipeline of Figure 5 for one workload under one policy on
// one machine. Runner is the one executor interface every serving layer
// implements per job, and Sweep runs a batch of jobs through any Runner,
// returning the records in job order.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// Runner executes one job. It is the only executor interface: the
// simsvc worker pool, the store-backed cache, the fleet dispatcher and
// the analytic tier all implement it and wrap one another per job, and
// Sweep turns any of them into an ordered batch.
type Runner interface {
	Exec(ctx context.Context, job Job) (*stats.Run, error)
}

// RunFunc adapts a function to Runner. RunFunc(SimulateJobContext) is
// the pool-free executor: it runs each job on the caller's goroutine
// with no queue, bound or panic recovery, which makes it the reference
// the determinism tests hold the pool against. Under Sweep every job
// simulates at once, so keep such sweeps small.
type RunFunc func(ctx context.Context, job Job) (*stats.Run, error)

// Exec calls f.
func (f RunFunc) Exec(ctx context.Context, job Job) (*stats.Run, error) { return f(ctx, job) }

// Sweep runs every job through r concurrently and returns the records
// in job order. A job's Label, when set, replaces Policy on a clone of
// its record — executors return canonical records, which caches share —
// and this is the only place a label is applied. Jobs reach r.Exec in
// job order as far as goroutine start-up allows: each goroutine claims
// the next index from a shared counter, because the scheduler runs the
// most recently spawned goroutine first. After every job has settled,
// the error of the earliest failed job is returned.
func Sweep(ctx context.Context, r Runner, jobs []Job) ([]*stats.Run, error) {
	runs := make([]*stats.Run, len(jobs))
	errs := make([]error, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(len(jobs))
	for range jobs {
		go func() {
			defer wg.Done()
			i := next.Add(1) - 1
			run, err := r.Exec(ctx, jobs[i])
			if err == nil && jobs[i].Label != "" {
				run = run.Clone()
				run.Policy = jobs[i].Label
			}
			runs[i], errs[i] = run, err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return runs, nil
}
