package simsvc

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"ladm/internal/arch"
	"ladm/internal/core"
	"ladm/internal/kernels"
	rt "ladm/internal/runtime"
	"ladm/internal/simtel"
	"ladm/internal/stats"
)

func testDiskStore(t *testing.T, dir string) *DiskStore {
	t.Helper()
	ds, err := NewDiskStore(dir, 0, "test", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// findRecord returns the path of the single on-disk record under dir.
func findRecord(t *testing.T, dir string) string {
	t.Helper()
	var recs []string
	filepath.Walk(filepath.Join(dir, "objects"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".rec") {
			recs = append(recs, path)
		}
		return nil
	})
	if len(recs) != 1 {
		t.Fatalf("records on disk = %d, want 1", len(recs))
	}
	return recs[0]
}

// TestDiskStoreCrashRecovery is the tentpole acceptance test: simulate
// through a store-backed cache, tear everything down, reopen the same
// directory in a fresh cache, and get the byte-identical record back
// with zero re-simulation.
func TestDiskStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	req := Request{Workload: "vecadd", Scale: 64}.Normalize()
	key := req.Key()
	job, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	ds := testDiskStore(t, dir)
	cache := NewCache(nil)
	cache.SetStore(ds)
	run1, cached, err := cache.Do(context.Background(), key, func() (*stats.Run, error) {
		return core.SimulateJobContext(context.Background(), job)
	})
	if err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	ds.Close() // flush the write-behind queue — the "crash" happens after

	ds2 := testDiskStore(t, dir)
	defer ds2.Close()
	cache2 := NewCache(nil)
	cache2.SetStore(ds2)
	run2, cached2, err := cache2.Do(context.Background(), key, func() (*stats.Run, error) {
		t.Fatal("record was re-simulated after restart")
		return nil, nil
	})
	if err != nil || !cached2 {
		t.Fatalf("post-restart Do: cached=%v err=%v", cached2, err)
	}
	a, _ := json.Marshal(run1)
	b, _ := json.Marshal(run2)
	if string(a) != string(b) {
		t.Errorf("restart changed the record:\n%s\n%s", a, b)
	}
	if st := ds2.Store.Stats(); st.Hits != 1 {
		t.Errorf("store stats after restart hit: %+v", st)
	}
}

// TestDiskStoreCorruptRecompute flips a byte in the persisted record:
// the next read must quarantine it and transparently re-simulate.
func TestDiskStoreCorruptRecompute(t *testing.T) {
	dir := t.TempDir()
	key := Request{Workload: "vecadd", Scale: 8}.Normalize().Key()
	fresh := &stats.Run{Workload: "vecadd", Policy: "ladm", Cycles: 99}

	ds := testDiskStore(t, dir)
	cache := NewCache(nil)
	cache.SetStore(ds)
	cache.Do(context.Background(), key, func() (*stats.Run, error) { return fresh, nil })
	ds.Close()

	rec := findRecord(t, dir)
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x10
	if err := os.WriteFile(rec, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ds2 := testDiskStore(t, dir)
	defer ds2.Close()
	cache2 := NewCache(nil)
	cache2.SetStore(ds2)
	recomputed := false
	run, cached, err := cache2.Do(context.Background(), key, func() (*stats.Run, error) {
		recomputed = true
		return fresh, nil
	})
	if err != nil || cached || !recomputed || run == nil {
		t.Fatalf("corrupt read: cached=%v recomputed=%v err=%v", cached, recomputed, err)
	}
	if st := ds2.Store.Stats(); st.Corrupt != 1 || !st.Healthy {
		t.Errorf("store stats after corruption: %+v", st)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) != 1 {
		t.Errorf("quarantine entries = %d, err %v; want 1", len(ents), err)
	}
}

// TestDiskStoreRejectsNonRunPayload: a record whose envelope is intact
// but whose payload is not a stats.Run is quarantined like any other
// corruption.
func TestDiskStoreRejectsNonRunPayload(t *testing.T) {
	dir := t.TempDir()
	key := Request{Workload: "vecadd"}.Normalize().Key()
	ds := testDiskStore(t, dir)
	defer ds.Close()
	ds.Store.Put(key.String(), []byte("not a run"), stats.NewProvenance("test"))
	if _, ok := ds.GetRun(key); ok {
		t.Fatal("garbage payload served as a record")
	}
	if st := ds.Store.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
}

func TestRequestForJob(t *testing.T) {
	const scale = 8
	namedJob := func() core.Job {
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

	req, ok := RequestForJob(namedJob(), scale)
	want := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: scale}.Normalize()
	if !ok || req != want {
		t.Fatalf("named job: %+v, %v; want %+v", req, ok, want)
	}

	// A workload mutated away from its registry build (oversub's repeated
	// launches) must not be cached under the registry name.
	mutated := namedJob()
	mutated.Workload.Launches[0].Times += 2
	if _, ok := RequestForJob(mutated, scale); ok {
		t.Error("mutated workload mapped to a cache key")
	}

	// Telemetry-carrying jobs produce collector-dependent records.
	withTel := namedJob()
	withTel.Tel = simtel.New(simtel.Config{SampleEvery: simtel.DefaultSampleEvery})
	if _, ok := RequestForJob(withTel, scale); ok {
		t.Error("telemetry job mapped to a cache key")
	}

	// A machine config that is not a registered machine.
	resized := namedJob()
	resized.Arch.SMsPerChiplet *= 2
	if _, ok := RequestForJob(resized, scale); ok {
		t.Error("mutated machine mapped to a cache key")
	}

	// The wrong scale: the workload bytes differ from the registry build.
	if _, ok := RequestForJob(namedJob(), scale+1); ok {
		t.Error("wrong scale mapped to a cache key")
	}
}

// TestCachedRunnerSweep drives a mixed sweep (two registry-named cells,
// one with a label, plus one mutated cell) through a store-backed
// CachedRunner twice across a simulated restart: the second pass must
// re-simulate only the unnameable cell, and records must match the
// first pass exactly.
func TestCachedRunnerSweep(t *testing.T) {
	const scale = 8
	var calls atomic.Int64
	pool := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{
			Workload: j.Workload.Name, Policy: j.Policy.Name, Arch: j.Arch.Name,
			Cycles: float64(len(j.Policy.Name) * 100), WarpInstrs: 1000, L2SectorMisses: 50,
		}, nil
	}})
	defer pool.Close()

	mkJob := func(policy, label string) core.Job {
		t.Helper()
		spec, err := kernels.ByName("vecadd", scale)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := rt.ByName(policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := arch.ByName("hier")
		if err != nil {
			t.Fatal(err)
		}
		return core.Job{Workload: spec.W, Policy: pol, Arch: cfg, Label: label}
	}

	dir := t.TempDir()
	sweep := func() []*stats.Run {
		t.Helper()
		ds := testDiskStore(t, dir)
		defer ds.Close()
		cache := NewCache(pool.Metrics())
		cache.SetStore(ds)
		runner := &CachedRunner{Inner: pool, Cache: cache, Scale: scale}
		mutated := mkJob("ladm", "oversub")
		mutated.Workload.Launches[0].Times += 2
		runs, err := core.Sweep(context.Background(), runner, []core.Job{
			mkJob("ladm", ""),
			mkJob("h-coda", "baseline"),
			mutated,
		})
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}

	first := sweep()
	if n := calls.Load(); n != 3 {
		t.Fatalf("first sweep simulated %d jobs, want 3", n)
	}
	if first[1].Policy != "baseline" {
		t.Errorf("labelled cell reported policy %q", first[1].Policy)
	}
	if first[2].Policy != "oversub" {
		t.Errorf("pass-through cell reported policy %q", first[2].Policy)
	}

	second := sweep()
	if n := calls.Load(); n != 4 {
		t.Fatalf("restart sweep simulated %d extra jobs, want exactly 1 (the mutated cell)", n-3)
	}
	for i := range first {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Errorf("cell %d diverged across restart:\n%s\n%s", i, a, b)
		}
	}
}

// TestCachedRunnerLabelsOnlyClones: through core.Sweep, a labelled cell
// served by a CachedRunner carries its label while the cached canonical
// record — shared with the unlabelled twin in the same sweep — keeps the
// policy name.
func TestCachedRunnerLabelsOnlyClones(t *testing.T) {
	const scale = 64
	spec, err := kernels.ByName("vecadd", scale)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := rt.ByName("h-coda")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := arch.ByName("hier")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	cache := NewCache(nil)
	runner := &CachedRunner{Cache: cache, Scale: scale,
		Inner: core.RunFunc(func(_ context.Context, j core.Job) (*stats.Run, error) {
			calls.Add(1)
			return &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name}, nil
		})}
	job := core.Job{Workload: spec.W, Policy: pol, Arch: cfg}
	labelled := job
	labelled.Label = "baseline"

	runs, err := core.Sweep(context.Background(), runner, []core.Job{labelled, job})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("inner simulations = %d, want 1 (one key)", calls.Load())
	}
	if runs[0].Policy != "baseline" || runs[1].Policy != "h-coda" {
		t.Errorf("policies = %q, %q; want baseline, h-coda", runs[0].Policy, runs[1].Policy)
	}
	req, _ := RequestForJob(job, scale)
	cached, ok := cache.Get(req.Key())
	if !ok || cached.Policy != "h-coda" {
		t.Errorf("cached canonical record = %+v (ok=%v), want policy h-coda", cached, ok)
	}
}

// TestServerStoreRestart is the end-to-end restart contract over HTTP:
// a result computed before shutdown is served as a cache hit by a fresh
// server process on the same store directory.
func TestServerStoreRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	start := func() (*httptest.Server, *Server, *DiskStore, *Pool) {
		pool := NewPool(PoolConfig{Workers: 2, Simulate: func(_ context.Context, j core.Job) (*stats.Run, error) {
			calls.Add(1)
			return &stats.Run{Workload: j.Workload.Name, Policy: j.Policy.Name, Cycles: 7}, nil
		}})
		srv := NewServer(pool)
		ds := testDiskStore(t, dir)
		srv.SetStore(ds)
		return httptest.NewServer(srv.Handler()), srv, ds, pool
	}

	req := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 8}
	ts, _, ds, pool := start()
	resp, body := postJSON(t, ts.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", resp.StatusCode, body)
	}
	ts.Close()
	pool.Close()
	ds.Close()

	ts2, _, ds2, pool2 := start()
	defer func() { ts2.Close(); pool2.Close(); ds2.Close() }()
	resp, body = postJSON(t, ts2.URL+"/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart run: %d %s", resp.StatusCode, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Cached {
		t.Error("post-restart run was not served from the store")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("simulate calls = %d, want 1", n)
	}
	r, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var text strings.Builder
	if _, err := io.Copy(&text, r.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"simsvc_store_hits_total 1",
		"simsvc_store_healthy 1",
		"simsvc_cache_hits_total 1",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
