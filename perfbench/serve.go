package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ladm/internal/core"
	"ladm/internal/simsvc"
	"ladm/internal/stats"
)

// The serve-zipf cell set: registry cells (workload x policy x machine)
// at a cheap scale. Most workloads are regular, so an "auto" request is
// answered by the analytic tier; spmv-jds and sssp are irregular and
// escalate to the event engine.
const (
	serveScale     = 64
	serveZipfS     = 1.1  // Zipf exponent of the cell popularity
	serveAutoShare = 0.25 // share of requests carrying "fidelity":"auto"
	serveSeedShare = 3    // the store holds 1 in serveSeedShare cells at event fidelity
	serveSeqLen    = 1 << 18
	// servePopularity seeds the fixed assignment of cells to Zipf ranks.
	servePopularity = 0x5a17f00d
)

var (
	serveWorkloads = []string{
		"sq-gemm", "lstm-1", "lstm-2", "resnet50-fc", "vggnet-fc2", "alexnet-fc2",
		"vecadd", "hs", "srad", "histo-final", "spmv-jds", "sssp",
	}
	servePolicies = []string{"h-coda", "lasp+rtwice", "lasp+ronce", "ladm"}
	serveMachines = []string{"hier", "dgx"}
)

var serveDef = &workloadDef{
	name:     "serve-zipf",
	why:      "closed-loop POST /run over loopback HTTP, Zipf cell mix with a quarter auto-fidelity: memory hits, store reads and computed misses",
	minUnits: 2000,
	inputs:   serveInputs,
	setup:    serveSetup,
	pin:      servePin,
}

// serveInput is the seeded request stream. Request r is cell r/2 at
// event fidelity (even r) or auto fidelity (odd r).
type serveInput struct {
	reqs   []simsvc.Request
	ids    []string // pin cell ids
	bodies [][]byte
	seq    []int32 // request index of each unit
	// stores are store directories, each holding the records of every
	// serveSeedShare-th cell at event fidelity; every set-up opens one
	// of its own. They are made with the inputs, so set-up time covers
	// opening a store, not copying one.
	stores chan string
}

// serveStores is how many store copies the inputs prepare: one per
// set-up of a run, traced or not.
const serveStores = setupReps + 2

func serveRequests() []simsvc.Request {
	var out []simsvc.Request
	for _, w := range serveWorkloads {
		for _, p := range servePolicies {
			for _, m := range serveMachines {
				r := simsvc.Request{Workload: w, Policy: p, Machine: m, Scale: serveScale}
				auto := r
				auto.Fidelity = simsvc.FidelityAuto
				out = append(out, r.Normalize(), auto.Normalize())
			}
		}
	}
	return out
}

func requestID(r simsvc.Request) string {
	id := r.Workload + "/" + r.Policy + "/" + r.Machine + "/" + strconv.Itoa(r.Scale)
	if r.Fidelity != "" {
		id += "/" + r.Fidelity
	}
	return id
}

func serveInputs(cfg *config) (any, func(), error) {
	in := &serveInput{reqs: serveRequests()}
	for _, r := range in.reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, nil, err
		}
		in.ids = append(in.ids, requestID(r))
		in.bodies = append(in.bodies, b)
	}
	cells := len(in.reqs) / 2
	// Which cell holds which popularity rank is fixed, so every seed
	// serves the same hot set; the seed draws the request stream.
	byRank := permutation(servePopularity, cells)
	draws := zipfSequence(cfg.seed, cells, serveZipfS, serveSeqLen)
	rng := splitmix64(cfg.seed ^ 0xa070)
	in.seq = make([]int32, len(draws))
	for i, rank := range draws {
		r := 2 * byRank[rank]
		if rng.float() < serveAutoShare {
			r++
		}
		in.seq[i] = int32(r)
	}
	// The stored share is the same for every seed, so every seed's
	// misses cost alike; the seed decides which cells are popular.
	var seeded []int
	for c := 0; c < cells; c += serveSeedShare {
		seeded = append(seeded, 2*c)
	}
	root, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, nil, err
	}
	release := func() { os.RemoveAll(root) }
	template := filepath.Join(root, "template")
	if err := seedStore(template, in, seeded); err != nil {
		release()
		return nil, nil, err
	}
	in.stores = make(chan string, serveStores)
	for i := 0; i < serveStores; i++ {
		dir := filepath.Join(root, fmt.Sprintf("store-%02d", i))
		if err := copyTree(template, dir); err != nil {
			release()
			return nil, nil, fmt.Errorf("copying the seeded store: %w", err)
		}
		in.stores <- dir
	}
	return in, release, nil
}

// seedStore writes the stored share of the cell set into a store
// directory, as an earlier server run would have left it.
func seedStore(dir string, in *serveInput, seeded []int) error {
	store, err := simsvc.NewDiskStore(dir, 0, "perfbench", nil)
	if err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	defer store.Close() // flushes the write-behind queue
	for _, i := range seeded {
		job, err := in.reqs[i].Resolve()
		if err != nil {
			return fmt.Errorf("seeding %s: %w", in.ids[i], err)
		}
		run, err := core.SimulateJobContext(context.Background(), job)
		if err != nil {
			return fmt.Errorf("seeding %s: %w", in.ids[i], err)
		}
		store.PutRun(in.reqs[i].Key(), run)
	}
	return nil
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

type serveInstance struct {
	cfg    *config
	in     *serveInput
	dir    string
	svc    *service
	client *http.Client
	tr     *tracer

	memoMu sync.Mutex
	memo   map[int32]verified

	last scrapeDelta
}

// verified caches a request's checked record by a hash of the response
// bytes it arrived as, so repeats of a cell skip the full decode.
type verified struct {
	hash uint64
	run  *stats.Run
}

// serveSetup stands up what a restarted ladmserve -store-dir sees: a
// store holding part of the cell set, opened under a fresh server.
func serveSetup(cfg *config, inAny any, hooks *simHooks) (instance, error) {
	in := inAny.(*serveInput)
	var dir string
	select {
	case dir = <-in.stores:
	default:
		return nil, fmt.Errorf("all %d prepared stores are in use", serveStores)
	}
	store, err := simsvc.NewDiskStore(dir, 0, "perfbench", nil)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening store: %w", err)
	}
	svc, err := startService(cfg.nproc, store, hooks)
	if err != nil {
		store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	client, _ := newClient(cfg.nproc)
	return &serveInstance{cfg: cfg, in: in, dir: dir, svc: svc, client: client,
		tr: hooks.tr, memo: map[int32]verified{}}, nil
}

func (s *serveInstance) run(stop func(int) bool, m *meter) *phase {
	p := &phase{}
	before, err := s.svc.scrape(s.client)
	if err != nil {
		p.fail("%v", err)
	}
	tk := &tickets{stop: stop}
	stopMeter := m.every(time.Second)
	var mu sync.Mutex
	seen := map[int32]bool{}
	var wg sync.WaitGroup
	for c := 0; c < s.cfg.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			track := "client-" + strconv.Itoa(c)
			var lat []float64
			var local phase
			for {
				i, ok := tk.take()
				if !ok {
					break
				}
				r := s.in.seq[i%len(s.in.seq)]
				run, ms, err := s.post(r, track)
				m.add(1)
				local.ops++
				lat = append(lat, ms)
				if err != nil {
					local.fail("request %d (%s): %v", i, s.in.ids[r], err)
					continue
				}
				local.delivered += run.WarpInstrs
				if i < serveDef.minUnits {
					mu.Lock()
					if !seen[r] {
						seen[r] = true
						p.sim.add(run)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			p.ops += local.ops
			p.failed += local.failed
			p.delivered += local.delivered
			p.lat = append(p.lat, lat...)
			for _, e := range local.errs {
				if len(p.errs) < 5 {
					p.errs = append(p.errs, e)
				}
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	stopMeter()
	p.units = tk.issued()
	after, err := s.svc.scrape(s.client)
	if err != nil {
		p.fail("%v", err)
	}
	s.last = scrapeDelta{before: []promText{before}, after: []promText{after}}
	return p
}

// post sends request r and checks the record it returns.
func (s *serveInstance) post(r int32, track string) (*stats.Run, float64, error) {
	req, err := http.NewRequest(http.MethodPost, s.svc.url+"/run", bytes.NewReader(s.in.bodies[r]))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := s.tr.newID()
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	t0 := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	elapsed := time.Since(t0)
	s.tr.add(span{Name: "POST /run", Cat: "client", Track: track, ID: id, Start: t0, Dur: elapsed})
	lat := float64(elapsed.Nanoseconds()) / 1e6
	if err != nil {
		return nil, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("status %d", resp.StatusCode)
	}
	run, err := s.verify(r, body)
	return run, lat, err
}

func (s *serveInstance) verify(r int32, body []byte) (*stats.Run, error) {
	var view struct {
		Run json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	h := fnv.New64a()
	h.Write(view.Run)
	sum := h.Sum64()
	s.memoMu.Lock()
	v, ok := s.memo[r]
	s.memoMu.Unlock()
	if ok && v.hash == sum {
		return v.run, nil
	}
	run := new(stats.Run)
	if err := json.Unmarshal(view.Run, run); err != nil {
		return nil, fmt.Errorf("decoding record: %w", err)
	}
	if err := s.cfg.pins.check(s.in.ids[r], run); err != nil {
		return nil, err
	}
	s.memoMu.Lock()
	s.memo[r] = verified{hash: sum, run: run}
	s.memoMu.Unlock()
	return run, nil
}

func (s *serveInstance) layers(p *phase) map[string]float64 {
	mean := 0.0
	for _, v := range p.lat {
		mean += v
	}
	return serviceMetrics(s.last, safeDiv(mean, float64(len(p.lat))))
}

func (s *serveInstance) warm() error {
	return fillRegistry(s.client, s.svc.url, s.cfg.nproc)
}

func (s *serveInstance) close() {
	s.svc.close()
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// servePin requests every cell of the set once from a fresh store-less
// server and pins the record it serves.
func servePin(cfg *config) (pinSet, error) {
	svc, err := startService(cfg.nproc, nil, &simHooks{})
	if err != nil {
		return nil, err
	}
	defer svc.close()
	client, _ := newClient(1)
	defer client.CloseIdleConnections()
	p := pinSet{}
	for _, r := range serveRequests() {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(svc.url+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		var view struct {
			Run *stats.Run `json:"run"`
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || view.Run == nil {
			return nil, fmt.Errorf("%s: status %d: %v", requestID(r), resp.StatusCode, err)
		}
		d, err := digest(view.Run)
		if err != nil {
			return nil, err
		}
		p.put(requestID(r), d)
	}
	return p, nil
}
