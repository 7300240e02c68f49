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
	"ladm/internal/compiler"
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

// Sweep runs every distinct job through r concurrently and returns the
// records in job order.
//
// Jobs that simulate the same plan share one run: they name the same
// Workload pointer and Arch, and the same Policy once its Name is
// ignored and CacheCRB is resolved for the workload (rt.ResolveCache).
// LADM is LASP plus CRB, so an ladm job shares the run of its lasp+ronce
// or lasp+rtwice twin. A job with a Tel collector, whose telemetry is
// its own, or with no Workload always runs on its own. The first job of
// each group reaches r.Exec unchanged; the others never reach it, and
// nothing is remembered beyond one call.
//
// A job that is unlabelled and names the same policy as the job that
// ran gets the run's record as is. Any other job gets a clone carrying
// its Label, else its Policy.Name: executors return canonical records,
// which caches share, so a record is never changed in place, and this is
// the only place a label is applied. A failed run fails every job that
// shares it. Groups reach r.Exec in job order as far as goroutine
// start-up allows: each goroutine claims the next group from a shared
// counter, because the scheduler runs the most recently spawned
// goroutine first. After every run has settled, the error of the
// earliest failed job is returned.
func Sweep(ctx context.Context, r Runner, jobs []Job) ([]*stats.Run, error) {
	lead, group := distinct(jobs)
	runs := make([]*stats.Run, len(lead))
	errs := make([]error, len(lead))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(len(lead))
	for range lead {
		go func() {
			defer wg.Done()
			g := next.Add(1) - 1
			runs[g], errs[g] = r.Exec(ctx, jobs[lead[g]])
		}()
	}
	wg.Wait()
	out := make([]*stats.Run, len(jobs))
	for i, j := range jobs {
		g := group[i]
		if errs[g] != nil {
			return nil, errs[g]
		}
		run := runs[g]
		if j.Label != "" || j.Policy.Name != jobs[lead[g]].Policy.Name {
			run = run.Clone()
			run.Policy = j.Label
			if run.Policy == "" {
				run.Policy = j.Policy.Name
			}
		}
		out[i] = run
	}
	return out, nil
}

// planKey names the plan a job simulates: the job with its policy's name
// dropped and CRB resolved.
type planKey struct {
	w    *kir.Workload
	arch arch.Config
	pol  rt.Policy
}

// distinct groups the jobs that simulate the same plan. Groups are
// numbered in job order: lead[g] is the index of group g's first job and
// group[i] is job i's group. CRB is resolved once per workload.
func distinct(jobs []Job) (lead, group []int) {
	crb := map[*kir.Workload]rt.CacheKind{}
	ids := make(map[planKey]int, len(jobs))
	group = make([]int, len(jobs))
	for i, j := range jobs {
		if j.Workload == nil || j.Tel != nil {
			group[i], lead = len(lead), append(lead, i)
			continue
		}
		k := planKey{j.Workload, j.Arch, j.Policy}
		k.pol.Name = ""
		if k.pol.Cache == rt.CacheCRB {
			c, ok := crb[j.Workload]
			if !ok {
				// An invalid workload fails in Exec; it stays unresolved.
				c = rt.CacheCRB
				if j.Workload.Validate() == nil {
					c = rt.ResolveCache(c, compiler.Analyze(j.Workload).DominantForWorkload(j.Workload))
				}
				crb[j.Workload] = c
			}
			k.pol.Cache = c
		}
		g, ok := ids[k]
		if !ok {
			g, lead = len(lead), append(lead, i)
			ids[k] = g
		}
		group[i] = g
	}
	return lead, group
}
