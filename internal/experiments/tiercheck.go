package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"ladm/internal/analytic"
	"ladm/internal/arch"
	"ladm/internal/core"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// Tiercheck is the validation harness for the closed-form analytic tier:
// every registry workload the model claims as high-confidence is
// predicted analytically AND simulated on the event engine, and the
// local/remote traffic split of the two must agree within the budget
// pinned in internal/analytic/error_budget.json. Workloads the model
// escalates are listed with their reasons — the harness checks that the
// escalation set is honest, not that it is empty.
//
// The closing line ("tiercheck: all N cells within the pinned error
// budget") only appears when every cell passes; CI greps for it.
func Tiercheck(o Options) (*Result, error) {
	specs, err := o.specs()
	if err != nil {
		return nil, err
	}
	tr := &analytic.Runner{Scale: o.scale()}
	cell := polCell(rt.LADM(), arch.DefaultHierarchical(), "ladm")

	var (
		highSpecs []string
		highJobs  []core.Job
		escRows   [][]string
	)
	for _, s := range specs {
		job := core.Job{Workload: s.W, Policy: cell.Policy, Arch: cell.Arch, Label: cell.Label}
		if d := tr.Assess(job); d.Confidence != analytic.ConfidenceHigh {
			escRows = append(escRows, []string{s.W.Name, d.Reason})
			continue
		}
		highSpecs = append(highSpecs, s.W.Name)
		highJobs = append(highJobs, job)
	}
	if len(highJobs) == 0 {
		return nil, fmt.Errorf("tiercheck: no high-confidence workloads in the selection")
	}

	t0 := time.Now()
	preds := make([]*stats.Run, len(highJobs))
	for i, job := range highJobs {
		if preds[i], err = analytic.Predict(job); err != nil {
			return nil, fmt.Errorf("tiercheck: %s: %v", highSpecs[i], err)
		}
	}
	analyticDur := time.Since(t0)

	runner := o.Runner
	if runner == nil {
		pool := simsvc.NewPool(simsvc.PoolConfig{Workers: o.Workers})
		defer pool.Close()
		runner = pool
	}
	t1 := time.Now()
	evs, err := core.Sweep(context.Background(), runner, highJobs)
	if err != nil {
		return nil, err
	}
	eventDur := time.Since(t1)

	values := map[string]float64{
		"high-confidence": float64(len(highJobs)),
		"escalated":       float64(len(escRows)),
	}
	var rows [][]string
	violations, maxErr := 0, 0.0
	for i, name := range highSpecs {
		pred, ev := preds[i], evs[i]
		splitErr, budget := analytic.SplitError(pred, ev), analytic.ErrorBudget(name)
		if splitErr > maxErr {
			maxErr = splitErr
		}
		verdict := "ok"
		if splitErr > budget {
			verdict = "FAIL"
			violations++
		}
		rows = append(rows, []string{
			name,
			stats.Pct(pred.OffNodeFraction()), stats.Pct(ev.OffNodeFraction()),
			stats.Pct(analytic.RemoteShare(pred)), stats.Pct(analytic.RemoteShare(ev)),
			fmt.Sprintf("%.3f", splitErr), fmt.Sprintf("%.3f", budget), verdict,
		})
	}
	values["violations"] = float64(violations)
	values["max-split-error"] = maxErr
	speedup := 0.0
	if analyticDur > 0 {
		speedup = float64(eventDur) / float64(analyticDur)
	}
	values["speedup"] = speedup

	var b strings.Builder
	b.WriteString(header("Tiercheck: analytic tier vs event engine (traffic split)"))
	b.WriteString(stats.Table([]string{
		"workload", "off-node A", "off-node E", "remote-L2 A", "remote-L2 E",
		"split err", "budget", "verdict",
	}, rows))
	if len(escRows) > 0 {
		b.WriteString("\nEscalated to the event engine (outside the model's domain):\n")
		b.WriteString(stats.Table([]string{"workload", "reason"}, escRows))
	}
	fmt.Fprintf(&b, "\nAnalytic tier: %d cells in %s; event engine: %s (%.0fx).\n",
		len(highJobs), analyticDur.Round(time.Microsecond), eventDur.Round(time.Millisecond), speedup)
	if violations > 0 {
		fmt.Fprintf(&b, "tiercheck FAILED: %d of %d cells exceeded the pinned error budget\n",
			violations, len(highJobs))
	} else {
		fmt.Fprintf(&b, "tiercheck: all %d high-confidence cells within the pinned error budget (%d escalated)\n",
			len(highJobs), len(escRows))
	}
	return &Result{Name: "tiercheck", Text: b.String(), Values: values, Runs: evs}, nil
}
