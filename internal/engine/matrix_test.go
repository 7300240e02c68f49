package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/kernels"
	"ladm/internal/runtime"
)

// matrixScale is the scale divisor of the whole-matrix golden: small
// enough that all 27 workloads run in seconds, large enough that every
// irregular workload still resolves indirect accesses and uneven trip
// counts through the event core.
const matrixScale = 256

// matrixPolicies are the four Fig. 9 policies the golden sweeps.
var matrixPolicies = []runtime.Policy{
	runtime.HCODA(), runtime.LASPRTwice(), runtime.LASPROnce(), runtime.LADM(),
}

// checkBooks reports any state a finished run left behind: a queued
// event or an event node off the free list, an in-flight transaction
// holding an MSHR, a resident threadblock, or a pooled object that never
// returned to its free list.
func (e *Engine) checkBooks() error {
	if err := e.sched.events.books(); err != nil {
		return err
	}
	for sm, n := range e.mshr {
		if n != 0 {
			return fmt.Errorf("sm %d holds %d MSHRs", sm, n)
		}
	}
	for node, n := range e.telRunning {
		if n != 0 {
			return fmt.Errorf("node %d has %d resident TBs", node, n)
		}
	}
	for _, l := range []struct {
		name         string
		free, carved int
	}{
		{"txState", len(e.txFree), e.txCarved},
		{"phaseRun", len(e.prFree), e.prCarved},
		{"tbExec", len(e.tbFree), e.tbCarved},
	} {
		if l.free != l.carved {
			return fmt.Errorf("%s free list holds %d of %d carved", l.name, l.free, l.carved)
		}
	}
	return nil
}

// books reports a non-empty queue: a set bucket bit, or an arena node
// (other than the sentinel) that is not on the free list.
func (h *eventHeap) books() error {
	if h.mask != 0 {
		return fmt.Errorf("event queue not empty: bucket mask %#x", h.mask)
	}
	if len(h.nodes) == 0 {
		return nil // nothing was ever queued
	}
	carved, free := len(h.nodes)-1, 0
	for i := h.free; i != 0; i = h.nodes[i].next {
		if free++; free > carved {
			return fmt.Errorf("event free list cycles")
		}
	}
	if free != carved {
		return fmt.Errorf("event free list holds %d of %d nodes", free, carved)
	}
	return nil
}

// TestMatrixDigestGolden pins the complete stats.Run record of every
// workload × Fig. 9 policy cell on the Table III machine, one
// "<workload>/<policy>/<arch> <digest>" line per cell. The digest is the
// first 16 hex digits of the sha256 of the record's encoding/json bytes,
// the format of perfbench/pins. Unlike the per-record goldens, which
// cover only regular kernels, this matrix reaches every irregular
// workload's execPhase and maybeFinish paths. Every cell's engine must
// also close its books (see checkBooks). Regenerate (only when the
// model itself intentionally changes) with:
//
//	go test ./internal/engine -run MatrixDigestGolden -update
func TestMatrixDigestGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range kernels.All(matrixScale) {
		for _, pol := range matrixPolicies {
			cfg := arch.DefaultHierarchical()
			plan, err := runtime.Prepare(spec.W, &cfg, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.W.Name, pol.Name, err)
			}
			e := New(plan)
			run, err := e.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.W.Name, pol.Name, err)
			}
			if err := e.checkBooks(); err != nil {
				t.Errorf("%s/%s: %v", spec.W.Name, pol.Name, err)
			}
			b, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			fmt.Fprintf(&got, "%s/%s/%s %s\n", run.Workload, run.Policy, run.Arch,
				hex.EncodeToString(sum[:])[:16])
		}
	}
	golden := filepath.Join("testdata", "matrix256.digest")
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("matrix digests differ from golden (run with -update only if the timing model intentionally changed)\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
