package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/compiler"
	"ladm/internal/interconnect"
	"ladm/internal/kernels"
	"ladm/internal/mem/cache"
	"ladm/internal/queueing"
	"ladm/internal/runtime"
	"ladm/internal/stats"
	"ladm/internal/trace"
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

// checkBooks reports any state a finished run left behind (see
// poolBooks). It also reports a cache whose live lines are not a prefix
// of their sets, L1 and L2 sector counts that do not balance, and a
// bandwidth resource busy for longer than the run.
func (e *Engine) checkBooks() error {
	if err := e.poolBooks(); err != nil {
		return err
	}
	for sm := range e.l1 {
		if err := e.l1[sm].CheckPrefix(); err != nil {
			return fmt.Errorf("sm %d L1: %w", sm, err)
		}
	}
	for node := range e.l2 {
		if err := e.l2[node].CheckPrefix(); err != nil {
			return fmt.Errorf("node %d L2: %w", node, err)
		}
	}
	if err := e.sectorBooks(); err != nil {
		return err
	}
	return e.busyBooks()
}

// poolBooks reports the pooled state a finished run left out of its
// pools: a queued event or an event node off the free list, an
// in-flight transaction holding an MSHR, a resident threadblock, or an
// object that never returned to its free list. These are the books an
// engine must close to be retired.
func (e *Engine) poolBooks() error {
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
		{"txState", len(e.txFree.free), e.txFree.carved},
		{"phaseRun", len(e.prFree.free), e.prFree.carved},
		{"tbExec", len(e.tbFree.free), e.tbFree.carved},
	} {
		if l.free != l.carved {
			return fmt.Errorf("%s free list holds %d of %d carved", l.name, l.free, l.carved)
		}
	}
	return nil
}

// sectorBooks balances the sector counts of the request path. The
// caches' own counters must sum to the run's L1 and L2 categories.
// Every L1 load miss and every store reaches the L2: at the requester's
// slice (LOCAL-LOCAL or LOCAL-REMOTE), except remote-homed stores, which
// go straight to the home slice. The home slice (REMOTE-LOCAL) sees the
// requester-side remote misses plus those stores.
func (e *Engine) sectorBooks() error {
	r := e.run
	var l1, l2 cache.Stats
	for sm := range e.l1 {
		st := e.l1[sm].Stats()
		l1.SectorHits += st.SectorHits
		l1.SectorMisses += st.SectorMisses
	}
	for node := range e.l2 {
		st := e.l2[node].Stats()
		l2.SectorHits += st.SectorHits
		l2.SectorMisses += st.SectorMisses
	}
	if l1.SectorHits != r.L1Hits || l1.SectorHits+l1.SectorMisses != r.L1Sectors {
		return fmt.Errorf("L1 caches count %d hits of %d sectors, run %d of %d",
			l1.SectorHits, l1.SectorHits+l1.SectorMisses, r.L1Hits, r.L1Sectors)
	}
	var cats stats.CatCounter
	for _, c := range r.L2 {
		cats.Sectors += c.Sectors
		cats.Hits += c.Hits
	}
	if l2.SectorHits != cats.Hits || l2.SectorHits+l2.SectorMisses != cats.Sectors {
		return fmt.Errorf("L2 caches count %d hits of %d sectors, run categories %d of %d",
			l2.SectorHits, l2.SectorHits+l2.SectorMisses, cats.Hits, cats.Sectors)
	}
	ll, lr, rl := r.L2[stats.LocalLocal], r.L2[stats.LocalRemote], r.L2[stats.RemoteLocal]
	if got, want := ll.Sectors+lr.Sectors+e.remoteStoreSectors, r.L1Sectors-r.L1Hits+e.storeSectors; got != want {
		return fmt.Errorf("requester L2 %d + remote stores %d sectors != L1 load misses %d + stores %d",
			ll.Sectors+lr.Sectors, e.remoteStoreSectors, r.L1Sectors-r.L1Hits, e.storeSectors)
	}
	if got, want := rl.Sectors, lr.Sectors-lr.Hits+e.remoteStoreSectors; got != want {
		return fmt.Errorf("home L2 %d sectors != requester remote misses %d + remote stores %d",
			rl.Sectors, lr.Sectors-lr.Hits, e.remoteStoreSectors)
	}
	return nil
}

// busyBooks reports a bandwidth resource that served for more cycles
// than the run lasted.
func (e *Engine) busyBooks() error {
	over := func(name string, busy float64) error {
		if busy > e.run.Cycles {
			return fmt.Errorf("%s busy %g cycles of a %g-cycle run", name, busy, e.run.Cycles)
		}
		return nil
	}
	for _, pool := range [][]queueing.Resource{e.smIssue, e.l2srv, e.hostLink} {
		for i := range pool {
			if err := over(pool[i].Name(), pool[i].BusyCycles()); err != nil {
				return err
			}
		}
	}
	for node := range e.hbm {
		if err := over(fmt.Sprintf("hbm.n%d channel", node), e.hbm[node].MaxChannelBusy()); err != nil {
			return err
		}
	}
	for _, k := range []interconnect.Kind{interconnect.Local, interconnect.InterChiplet, interconnect.InterGPU} {
		if err := over(k.String()+" fabric", e.net.MaxBusy(k)); err != nil {
			return err
		}
	}
	return nil
}

// TestBusyBooksNameResource checks that checkBooks names the resource
// whose busy cycles outlast the run: names are formatted from each
// resource's label on demand, so the message is the only place they show.
func TestBusyBooksNameResource(t *testing.T) {
	cfg := arch.DefaultHierarchical()
	plan, err := runtime.Prepare(vecAdd(64), &cfg, runtime.LADM())
	if err != nil {
		t.Fatal(err)
	}
	e := New(plan)
	if _, err := e.simulate(); err != nil {
		t.Fatal(err)
	}
	if err := e.checkBooks(); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	e.release()
	// Book more than the whole run on SM 17's issue port.
	e.smIssue[17].Serve(0, int(e.run.Cycles+1)*e.cfg.IssuePerCycle)
	err = e.checkBooks()
	if err == nil || !strings.HasPrefix(err.Error(), "sm17.issue busy ") {
		t.Errorf("overbooked issue port: checkBooks = %v, want it to name sm17.issue", err)
	}
}

// books reports a non-empty queue: a set bucket bit, a bucket that is
// not empty in the sentinel sense (its list starts nowhere, its tail is
// its sentinel, its minimum is MaxUint64), or an arena node (other than
// the sentinels) that is not on the free list.
func (h *eventHeap) books() error {
	if h.mask != 0 {
		return fmt.Errorf("event queue not empty: bucket mask %#x", h.mask)
	}
	if len(h.nodes) == 0 {
		return nil // nothing was ever queued
	}
	for b := range buckets {
		if h.nodes[b].next != 0 || h.tail[b] != int32(b) || (b > 0 && h.min[b] != math.MaxUint64) {
			return fmt.Errorf("empty bucket %d: head %d, tail %d, min %#x", b, h.nodes[b].next, h.tail[b], h.min[b])
		}
	}
	carved, free := len(h.nodes)-buckets, 0
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

// checkLADMTwin checks that one workload's ladm record equals, in every
// field but Policy, the record of the twin CRB resolves to: lasp+ronce
// when the workload's dominant locality is ITL, lasp+rtwice otherwise.
// core.Sweep relies on it to run an ladm cell once with its twin.
func checkLADMTwin(t *testing.T, runs map[string]*stats.Run, dominant compiler.LocalityType) {
	t.Helper()
	twin := runtime.LASPRTwice().Name
	if dominant == compiler.IntraThread {
		twin = runtime.LASPROnce().Name
	}
	ladm, other := *runs[runtime.LADM().Name], *runs[twin]
	ladm.Policy, other.Policy = "", ""
	if !reflect.DeepEqual(ladm, other) {
		t.Errorf("%s: the ladm record differs from its CRB twin %s beyond the policy name:\nladm: %+v\n%s: %+v",
			ladm.Workload, twin, ladm, twin, other)
	}
}

// TestMatrixDigestGolden pins the complete stats.Run record of every
// workload × Fig. 9 policy cell on the Table III machine, one
// "<workload>/<policy>/<arch> <digest>" line per cell. The digest is the
// first 16 hex digits of the sha256 of the record's encoding/json bytes,
// the format of perfbench/pins. Unlike the per-record goldens, which
// cover only regular kernels, this matrix reaches every irregular
// workload's execPhase and maybeFinish paths. Every cell's engine must
// also close its books (see checkBooks) before it releases its cache
// pages and retires, and every cell after the first runs on the engine
// and the pages the cell before it left, so the digests also pin that a
// recycled engine and a recycled page simulate as fresh ones. Each
// workload's ladm record must also equal its CRB twin's (checkLADMTwin).
// A workload's four cells share one trace holder, as core.Sweep's runs
// do: the first cell generates and publishes every memory phase (and
// replays its own repeated launches) and the other three replay every
// phase, so the digests also pin that a replayed phase simulates as a
// generated one.
// Regenerate (only when the model itself intentionally changes) with:
//
//	go test ./internal/engine -run MatrixDigestGolden -update
func TestMatrixDigestGolden(t *testing.T) {
	var got bytes.Buffer
	e := new(Engine)
	for _, spec := range kernels.All(matrixScale) {
		runs := map[string]*stats.Run{}
		var dominant compiler.LocalityType
		tapes := new(trace.Tapes)
		var first trace.TapeStats
		for i, pol := range matrixPolicies {
			cfg := arch.DefaultHierarchical()
			plan, err := runtime.Prepare(spec.W, &cfg, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.W.Name, pol.Name, err)
			}
			plan.Tapes = tapes
			dominant = plan.Dominant
			run, books := recycle(t, e, plan) // the next cell runs on e and its pages
			if books != nil {
				t.Errorf("%s/%s: %v", spec.W.Name, pol.Name, books)
			}
			b, err := json.Marshal(run)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			fmt.Fprintf(&got, "%s/%s/%s %s\n", run.Workload, run.Policy, run.Arch,
				hex.EncodeToString(sum[:])[:16])
			runs[pol.Name] = run
			if i == 0 {
				first = tapes.Stats()
			}
		}
		checkLADMTwin(t, runs, dominant)
		phases := first.Generated + first.Replayed
		if st := tapes.Stats(); st.Generated != first.Generated || st.Replayed != first.Replayed+3*phases {
			t.Errorf("%s: the first cell ran %d memory phases, generating %d; all four generated %d and replayed %d, want the other three to replay every phase",
				spec.W.Name, phases, first.Generated, st.Generated, st.Replayed)
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
