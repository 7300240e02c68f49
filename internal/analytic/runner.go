package analytic

import (
	"context"
	"errors"

	"ladm/internal/core"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	"ladm/internal/stats"
)

// Runner is the two-tier oracle: high-confidence jobs are answered from
// the closed-form model, everything else is escalated transparently to
// the Fallback event engine. Results carry their serving tier in
// Run.Tier/Run.Confidence.
type Runner struct {
	// Fallback runs escalated jobs; a nil Fallback turns escalation into
	// an error (model-only mode, used by validation harnesses).
	Fallback core.Runner
	// Scale is the registry scale the jobs were built at. When positive,
	// Assess verifies each workload against its registry build and
	// escalates anything mutated or custom; non-positive skips the
	// provenance check (the caller vouches for the workloads).
	Scale int
	// OnDecision, when set, observes every tier decision with its full
	// assessment — confidence, the bounded reason class, and the
	// free-text reason (metrics label the class, logs carry the text).
	// Under core.Sweep it is called from many goroutines at once.
	OnDecision func(tier string, d Decision)
}

// Assess classifies one job: AssessJob's structural checks plus the
// registry-provenance comparison when Scale is set. A workload that is
// not byte-equal to its registry build at Scale — a custom kernel, a
// mutated launch — always escalates: the model must never silently
// answer for inputs it was not validated on.
func (r *Runner) Assess(job core.Job) Decision {
	if r.Scale > 0 {
		if job.Workload == nil {
			return escalate(ReasonNoWorkload, "no workload")
		}
		spec, err := kernels.ByName(job.Workload.Name, r.Scale)
		if err != nil || !kir.Equal(spec.W, job.Workload) {
			return escalate(ReasonCustomWorkload,
				"workload %s is custom or mutated (no registry match at scale %d)",
				job.Workload.Name, r.Scale)
		}
	}
	return AssessJob(job)
}

// Exec implements core.Runner: it answers the job from the tier its
// assessment selects.
func (r *Runner) Exec(ctx context.Context, job core.Job) (*stats.Run, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d := r.Assess(job)
	if d.Confidence == ConfidenceHigh {
		run, err := Predict(job)
		if err == nil {
			r.decide(TierAnalytic, d)
			return run, nil
		}
		// A prediction failure inside the model's supposed domain is
		// itself an escalation, not a job failure.
		d = escalate(ReasonPredictionFailed, "prediction failed: %v", err)
	}
	r.decide(TierEvent, d)
	if r.Fallback == nil {
		return nil, errors.New("analytic: job escalated but no fallback runner configured")
	}
	run, err := r.Fallback.Exec(ctx, job)
	if err != nil {
		return nil, err
	}
	// Fallback runs are fresh records (the pool simulates per job);
	// tagging in place is safe and the tags ride into any cache or store
	// entry keyed by this fidelity.
	run.Tier = TierEvent
	run.Confidence = ConfidenceEscalate
	return run, nil
}

func (r *Runner) decide(tier string, d Decision) {
	if r.OnDecision != nil {
		r.OnDecision(tier, d)
	}
}
