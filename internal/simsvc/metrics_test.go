package simsvc

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPromExpositionParses checks the /metrics output against the
// Prometheus text exposition format the way expfmt would: every sample
// line belongs to a family announced by # HELP/# TYPE immediately above
// it, types are legal, and values parse as floats.
func TestPromExpositionParses(t *testing.T) {
	var calls atomic.Int64
	ts, _ := newTestService(t, &calls)
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"})
	postJSON(t, ts.URL+"/run", Request{Workload: "vecadd"}) // cache hit

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body, _ := io.ReadAll(r.Body)

	helpRe := regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|summary|histogram|untyped)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? ([0-9eE+.-]+|NaN|[+-]Inf)$`)

	var family string // most recent # TYPE name
	var helped, typed string
	families := map[string]bool{}
	samples := 0
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case line == "":
			t.Errorf("line %d: blank line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP "):
			m := helpRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			helped = m[1]
		case strings.HasPrefix(line, "# TYPE "):
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			family = m[1]
			if helped != family {
				t.Errorf("line %d: TYPE %s not preceded by its HELP (last HELP %s)", i+1, family, helped)
			}
			if families[family] {
				t.Errorf("line %d: family %s announced twice", i+1, family)
			}
			families[family] = true
			typed = m[2]
		default:
			m := sampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			name := m[1]
			ok := name == family
			if typed == "summary" && (name == family+"_sum" || name == family+"_count") {
				ok = true
			}
			if typed == "histogram" && (name == family+"_bucket" ||
				name == family+"_sum" || name == family+"_count") {
				ok = true
			}
			if !ok {
				t.Errorf("line %d: sample %s outside its family %s", i+1, name, family)
			}
			samples++
		}
	}
	if samples < 10 {
		t.Errorf("only %d samples exposed", samples)
	}
	for _, want := range []string{
		"simsvc_jobs_evicted_total", "simsvc_telemetry_jobs_total",
		"simsvc_telemetry_peak_link_util", "simsvc_tracked_jobs",
		"simsvc_telemetry_spilled_total", "simsvc_events_subscribers",
		"simsvc_tier_jobs_total", "simsvc_tier_escalations_total",
	} {
		if !families[want] {
			t.Errorf("family %s missing from exposition", want)
		}
	}
}

// TestCountersMonotonicUnderConcurrentJobs hammers the service from many
// goroutines while a watcher polls the counters, asserting every counter
// only ever moves forward.
func TestCountersMonotonicUnderConcurrentJobs(t *testing.T) {
	var calls atomic.Int64
	ts, srv := newTestService(t, &calls)
	m := srv.pool.Metrics()

	stop := make(chan struct{})
	watcherErr := make(chan string, 1)
	go func() {
		watched := []*atomic.Int64{&m.submitted, &m.started, &m.completed, &m.failed,
			&m.canceled, &m.cached, &m.evicted, &m.telemetry, &m.telemetrySpilled}
		prev := make([]int64, len(watched))
		var prevWall, prevCycles float64
		for {
			for i, c := range watched {
				v := c.Load()
				if v < prev[i] {
					select {
					case watcherErr <- fmt.Sprintf("counter %d went backwards: %d -> %d", i, prev[i], v):
					default:
					}
					return
				}
				prev[i] = v
			}
			wall := m.wall.Sum()
			_, cycles := m.wallTotals()
			if wall < prevWall || cycles < prevCycles {
				select {
				case watcherErr <- "wall/cycle accumulators went backwards":
				default:
				}
				return
			}
			prevWall, prevCycles = wall, cycles
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	const n = 24
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half distinct cells, half duplicates, so both the fresh and
			// cached paths run concurrently.
			postJSON(t, ts.URL+"/run", Request{Workload: "vecadd", Scale: 8 + i%12})
		}(i)
	}
	wg.Wait()
	close(stop)
	select {
	case msg := <-watcherErr:
		t.Fatal(msg)
	default:
	}

	submitted, completed := m.submitted.Load(), m.completed.Load()
	cached, failed, canceled := m.cached.Load(), m.failed.Load(), m.canceled.Load()
	// Cached/deduped requests never enter the queue, so only fresh
	// executions count as submitted.
	if submitted != completed {
		t.Errorf("submitted = %d, completed = %d", submitted, completed)
	}
	if got := completed + cached + failed + canceled; got != n {
		t.Errorf("completed %d + cached %d + failed %d + canceled %d = %d, want %d",
			completed, cached, failed, canceled, got, n)
	}
	if completed != calls.Load() {
		t.Errorf("completed = %d but simulator ran %d times", completed, calls.Load())
	}
}

// TestQueueDepthReturnsToZeroAfterDrain fills the queue behind a blocked
// worker, releases it, and expects the depth gauge back at zero.
func TestQueueDepthReturnsToZeroAfterDrain(t *testing.T) {
	var calls atomic.Int64
	started := make(chan string, 16)
	release := make(chan struct{})
	pool := NewPool(PoolConfig{Workers: 1, QueueDepth: 4,
		Simulate: blockingSim(&calls, started, release)})
	defer pool.Close()
	m := pool.Metrics()

	srv := NewServer(pool)
	done := make(chan struct{})
	const jobs = 4
	for i := 0; i < jobs; i++ {
		rec := srv.register(context.Background(), Request{Workload: "vecadd", Scale: 8 + i}.Normalize())
		go func() {
			srv.execute(context.Background(), rec)
			done <- struct{}{}
		}()
	}
	<-started // worker busy on the first job
	waitFor(t, func() bool { return m.depth.Load() > 0 })

	close(release)
	for i := 0; i < jobs; i++ {
		<-done
	}
	if depth := m.depth.Load(); depth != 0 {
		t.Errorf("queue depth after drain = %d, want 0", depth)
	}
	var buf strings.Builder
	m.WriteProm(&buf)
	if !strings.Contains(buf.String(), "simsvc_queue_depth 0") {
		t.Errorf("exposition does not show drained queue:\n%s", buf.String())
	}
}
