// Package integration_test checks cross-module invariants of the whole
// pipeline — compiler -> runtime -> trace — without the timing engine:
// the fraction of traffic each policy keeps node-local is measured by
// walking the actual generated trace against the actual page table, for
// every workload. These are the properties the paper's mechanisms exist
// to enforce.
package integration_test

import (
	"math/bits"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/kir"
	rt "ladm/internal/runtime"
	"ladm/internal/trace"
)

const scale = 16

// localFraction walks every transaction of every threadblock of the plan's
// first launch and returns the fraction of bytes homed on the issuing
// threadblock's node.
func localFraction(t *testing.T, w *kir.Workload, plan *rt.Plan) float64 {
	t.Helper()
	lp := plan.Launches[0]
	k := lp.Launch.Kernel
	gen, err := trace.New(k, plan.Space, w.Tables,
		plan.Cfg.LineBytes, plan.Cfg.SectorBytes, plan.Cfg.WarpSize)
	if err != nil {
		t.Fatal(err)
	}
	warps := k.WarpsPerTB(plan.Cfg.WarpSize)
	var local, total uint64
	var buf []trace.Transaction
	for node, q := range lp.Assignment.Queues {
		for _, tb := range q {
			iters := k.EffItersFor(int(tb))
			for _, phase := range []kir.Phase{kir.PreLoop, kir.InLoop, kir.PostLoop} {
				if gen.AccessSites(phase) == 0 {
					continue
				}
				ms := []int{0}
				if phase == kir.InLoop {
					ms = ms[:0]
					for m := 0; m < iters; m++ {
						ms = append(ms, m)
					}
				}
				for _, m := range ms {
					for wp := 0; wp < warps; wp++ {
						buf = buf[:0]
						buf, _ = gen.WarpTransactions(int(tb), wp, m, phase, buf)
						for _, tx := range buf {
							bytes := uint64(bits.OnesCount8(tx.Mask()) * plan.Cfg.SectorBytes)
							total += bytes
							home := plan.Space.Home(tx.Line() * uint64(plan.Cfg.LineBytes))
							if home < 0 {
								home = node // first touch would land here
							}
							if home == node {
								local += bytes
							}
						}
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no traffic generated")
	}
	return float64(local) / float64(total)
}

func prepare(t *testing.T, w *kir.Workload, pol rt.Policy) *rt.Plan {
	t.Helper()
	cfg := arch.DefaultHierarchical()
	plan, err := rt.Prepare(w, &cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestLADMNeverLosesLocality: across all 27 workloads, LADM's node-local
// traffic fraction is at least the round-robin baseline's — the minimum
// bar for a locality-management system.
func TestLADMNeverLosesLocality(t *testing.T) {
	for _, spec := range kernels.All(scale) {
		spec := spec
		t.Run(spec.W.Name, func(t *testing.T) {
			base := localFraction(t, spec.W, prepare(t, spec.W, rt.BaselineRR()))
			ladm := localFraction(t, spec.W, prepare(t, spec.W, rt.LADM()))
			if ladm+0.02 < base {
				t.Errorf("LADM local fraction %.3f below baseline %.3f", ladm, base)
			}
		})
	}
}

// TestStridedWorkloadsFullyLocal: the stride-aware co-placement must keep
// essentially all classified strided traffic on-node (Table I row
// "Threadblock-stride aware"). Strides that are exact multiples of
// nodes x pageSize co-place perfectly; ragged strides leak at page
// boundaries, so each workload is tested at a scale where its stride is
// page-clean (vecadd/scalarprod/reduction-k6 are clean at scale 16; blk
// needs a threadblock count divisible by 128, i.e. scale 5; histo-final's
// odd 1530-block grid is never perfectly clean and is held to 80%).
func TestStridedWorkloadsFullyLocal(t *testing.T) {
	cases := []struct {
		name  string
		scale int
		min   float64
	}{
		{"vecadd", scale, 0.95},
		{"scalarprod", scale, 0.95},
		{"reduction-k6", scale, 0.95},
		{"blk", 5, 0.95},
		{"histo-final", 8, 0.80},
	}
	for _, tc := range cases {
		spec, err := kernels.ByName(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		f := localFraction(t, spec.W, prepare(t, spec.W, rt.LADM()))
		if f < tc.min {
			t.Errorf("%s: LADM local fraction %.3f, want >= %.2f", tc.name, f, tc.min)
		}
	}
}

// TestStencilContiguity: row-contiguous binding leaves only halo rows
// remote. The grids need at least a few rows per node for the halo share
// to be small, so the stencils run at scale 8.
func TestStencilContiguity(t *testing.T) {
	for _, name := range []string{"srad", "hs"} {
		spec, err := kernels.ByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		ladm := localFraction(t, spec.W, prepare(t, spec.W, rt.LADM()))
		hcoda := localFraction(t, spec.W, prepare(t, spec.W, rt.HCODA()))
		if ladm < 0.85 {
			t.Errorf("%s: stencil local fraction %.3f, want >= 0.85", name, ladm)
		}
		if ladm <= hcoda {
			t.Errorf("%s: LADM (%.3f) should beat H-CODA (%.3f) on adjacency", name, ladm, hcoda)
		}
	}
}

// TestRowColBindingLocality: the RCL workloads' dominant shared structure
// stays substantially local under binding schedulers. Column-based
// placement needs data rows wide enough to split across the four GPUs at
// page granularity (>= 16 KB), so fwt-k2 runs at scale 4; histo-main's
// image rows are narrower than that even at paper size — its win comes
// from L2 locality, not placement — so it is exercised by Figure 9
// instead.
func TestRowColBindingLocality(t *testing.T) {
	cases := []struct {
		name  string
		scale int
	}{
		{"sq-gemm", scale}, {"conv", scale}, {"tra", scale}, {"fwt-k2", 4},
	}
	for _, tc := range cases {
		spec, err := kernels.ByName(tc.name, tc.scale)
		if err != nil {
			t.Fatal(err)
		}
		ladm := localFraction(t, spec.W, prepare(t, spec.W, rt.LADM()))
		base := localFraction(t, spec.W, prepare(t, spec.W, rt.BaselineRR()))
		if ladm <= base {
			t.Errorf("%s: LADM local %.3f not above baseline %.3f", tc.name, ladm, base)
		}
	}
}

// TestPlanDeterminism: preparing the same workload twice yields identical
// page tables and schedules.
func TestPlanDeterminism(t *testing.T) {
	spec, err := kernels.ByName("sq-gemm", scale)
	if err != nil {
		t.Fatal(err)
	}
	a := prepare(t, spec.W, rt.LADM())
	b := prepare(t, spec.W, rt.LADM())
	for _, alloc := range a.Space.Allocs() {
		other := b.Space.Lookup(alloc.ID)
		for off := uint64(0); off < alloc.Size; off += a.Cfg.PageBytes {
			if a.Space.Home(alloc.Base+off) != b.Space.Home(other.Base+off) {
				t.Fatalf("placement of %s differs at offset %d", alloc.ID, off)
			}
		}
	}
	qa, qb := a.Launches[0].Assignment.Queues, b.Launches[0].Assignment.Queues
	for n := range qa {
		if len(qa[n]) != len(qb[n]) {
			t.Fatalf("queue %d length differs", n)
		}
		for i := range qa[n] {
			if qa[n][i] != qb[n][i] {
				t.Fatalf("queue %d order differs", n)
			}
		}
	}
}
