package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/stats"
)

// refuseRunner fails every job — proof that a result was served from
// the shared store, not recomputed.
type refuseRunner struct{}

func (refuseRunner) Exec(context.Context, core.Job) (*stats.Run, error) {
	return nil, errors.New("recompute attempted: the shared store record was not found")
}

// TestCachedRunnerCrossProcessRescan is the store-dir sharing contract
// at the CachedRunner layer: two runner stacks ("processes") on the
// same -store-dir, where B's store was opened before A wrote — B must
// still serve A's finished cell from disk (via rescan-on-miss) instead
// of recomputing it.
func TestCachedRunnerCrossProcessRescan(t *testing.T) {
	const scale = 8
	dir := t.TempDir()

	mkJob := func() core.Job {
		t.Helper()
		spec, err := kernels.ByName("vecadd", scale)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := rt.ByName("ladm")
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := arch.ByName("hier")
		if err != nil {
			t.Fatal(err)
		}
		return core.Job{Workload: spec.W, Policy: pol, Arch: cfg}
	}

	// "Process B" opens its store first, so its index predates A's write.
	dsB := testDiskStore(t, dir)
	defer dsB.Close()

	// "Process A" computes the cell and flushes it to the shared dir.
	dsA := testDiskStore(t, dir)
	cacheA := NewCache(nil)
	cacheA.SetStore(dsA)
	runnerA := &CachedRunner{
		Inner: core.RunFunc(func(_ context.Context, j core.Job) (*stats.Run, error) {
			return &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name,
				Arch: j.Arch.Name, Cycles: 1234, WarpInstrs: 99}, nil
		}),
		Cache: cacheA, Scale: scale,
	}
	want, err := core.Sweep(context.Background(), runnerA, []core.Job{mkJob()})
	if err != nil {
		t.Fatal(err)
	}
	dsA.Close() // flush the write-behind queue so the record is on disk

	// B sweeps the same cell with a runner that refuses to compute: only
	// the rescan-on-miss path can satisfy it.
	cacheB := NewCache(nil)
	cacheB.SetStore(dsB)
	runnerB := &CachedRunner{Inner: refuseRunner{}, Cache: cacheB, Scale: scale}
	got, err := core.Sweep(context.Background(), runnerB, []core.Job{mkJob()})
	if err != nil {
		t.Fatalf("cross-process cell was recomputed or missed: %v", err)
	}
	a, _ := json.Marshal(want[0])
	b, _ := json.Marshal(got[0])
	if string(a) != string(b) {
		t.Fatalf("shared-store record diverged:\n a: %s\n b: %s", a, b)
	}
}
