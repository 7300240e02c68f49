// Package experiments regenerates every data-bearing table and figure of
// the paper's evaluation: Figure 4 (bandwidth sensitivity of prior
// techniques), Table IV (workload characterization), Figures 9 and 10
// (LADM performance and off-node traffic), Figure 11 (the RONCE/RTWICE
// case study), the Section IV-C hardware-validation analogue, and the
// qualitative Tables I-III. Each experiment returns the simulated numbers
// plus a plain-text rendering; `cmd/ladmbench` is a thin wrapper over this
// package.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the workload scale divisor (1 = paper-size inputs).
	Scale int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// Workloads restricts the workload set (nil = all 27).
	Workloads []string
	// Runner executes the simulation sweeps. Nil means a transient
	// simsvc worker pool of Workers workers per sweep; callers that run
	// several experiments (cmd/ladmbench, the service) pass one shared
	// pool so queueing and metrics span the whole campaign.
	Runner core.Runner
}

// DefaultOptions returns the fast-run defaults used by the harness.
func DefaultOptions() Options { return Options{Scale: 6} }

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

// specs returns the selected workloads at the configured scale.
func (o Options) specs() ([]*kernels.Spec, error) {
	if len(o.Workloads) == 0 {
		return kernels.All(o.scale()), nil
	}
	var out []*kernels.Spec
	for _, name := range o.Workloads {
		s, err := kernels.ByName(name, o.scale())
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Result is one experiment's outcome.
type Result struct {
	Name string
	// Text is the rendered report.
	Text string
	// Values holds headline numbers keyed by metric name, for tests and
	// EXPERIMENTS.md.
	Values map[string]float64
	// Runs are the underlying simulation records (nil for static tables).
	Runs []*stats.Run
}

// runMatrix sweeps specs x (policy, arch) cells and returns
// results[workload][cell] in input order.
func runMatrix(specs []*kernels.Spec, cells []core.Job, o Options) (map[string][]*stats.Run, error) {
	var jobs []core.Job
	for _, s := range specs {
		for _, c := range cells {
			jobs = append(jobs, core.Job{
				Workload: s.W, Policy: c.Policy, Arch: c.Arch, Label: c.Label,
			})
		}
	}
	runner := o.Runner
	if runner == nil {
		pool := simsvc.NewPool(simsvc.PoolConfig{Workers: o.Workers})
		defer pool.Close()
		runner = pool
	}
	runs, err := core.Sweep(context.Background(), runner, jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*stats.Run, len(specs))
	i := 0
	for _, s := range specs {
		out[s.W.Name] = runs[i : i+len(cells)]
		i += len(cells)
	}
	return out, nil
}

// groupOf maps a Table IV locality label to its Figure 9/10 group.
func groupOf(label string) string {
	switch label {
	case "NL", "NL-Xstride", "NL-Ystride":
		return "NL"
	case "RCL":
		return "RCL"
	case "ITL":
		return "ITL"
	default:
		return "Unclassified"
	}
}

// groupOrder is the presentation order of Figure 9/10.
var groupOrder = []string{"NL", "RCL", "ITL", "Unclassified"}

// sortSpecsByGroup orders workloads the way the paper's figures do:
// by locality group, then by name.
func sortSpecsByGroup(specs []*kernels.Spec) {
	rank := map[string]int{}
	for i, g := range groupOrder {
		rank[g] = i
	}
	sort.SliceStable(specs, func(i, j int) bool {
		gi, gj := rank[groupOf(specs[i].LocalityLabel)], rank[groupOf(specs[j].LocalityLabel)]
		if gi != gj {
			return gi < gj
		}
		return specs[i].W.Name < specs[j].W.Name
	})
}

func header(title string) string {
	line := strings.Repeat("=", len(title))
	return fmt.Sprintf("%s\n%s\n", title, line)
}

// polCell builds a sweep cell from a policy and machine.
func polCell(p rt.Policy, cfg arch.Config, label string) core.Job {
	return core.Job{Policy: p, Arch: cfg, Label: label}
}
