package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ladm/internal/stats"
)

func TestJobKeyDeterministic(t *testing.T) {
	a := Request{Workload: "vecadd", Policy: "ladm", Machine: "hier", Scale: 6}
	b := Request{Workload: "vecadd"} // defaults normalize to the same job
	if a.Key() != b.Key() {
		t.Errorf("normalized keys differ: %s vs %s", a.Key(), b.Key())
	}
	c := Request{Workload: "vecadd", Scale: 8}
	if a.Key() == c.Key() {
		t.Error("different scale must change the key")
	}
	d := Request{Workload: "vecadd", Policy: "h-coda"}
	if a.Key() == d.Key() {
		t.Error("different policy must change the key")
	}
}

// TestJobKeyParallelInvariant pins compatibility for clients written
// against the retired "parallel" request field: the server decodes
// requests without rejecting unknown fields, so a request still carrying
// it gets 200, the JobKey of the same request without the field, and a
// byte-identical record.
func TestJobKeyParallelInvariant(t *testing.T) {
	type view struct {
		Key string          `json:"key"`
		Run json.RawMessage `json:"run"`
	}
	post := func(body string) view {
		t.Helper()
		pool := NewPool(PoolConfig{Workers: 1})
		defer pool.Close()
		ts := httptest.NewServer(NewServer(pool).Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, data)
		}
		var v view
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if len(v.Run) == 0 {
			t.Fatalf("POST %s: no record: %s", body, data)
		}
		return v
	}
	old := post(`{"workload":"vecadd","parallel":4}`)
	plain := post(`{"workload":"vecadd"}`)
	if old.Key != plain.Key {
		t.Errorf("retired field changed the JobKey: %s vs %s", old.Key, plain.Key)
	}
	if !bytes.Equal(old.Run, plain.Run) {
		t.Errorf("retired field changed the record:\nwith    %s\nwithout %s", old.Run, plain.Run)
	}
}

func TestRequestResolveErrors(t *testing.T) {
	cases := []Request{
		{Workload: "nope"},
		{Workload: "vecadd", Policy: "nope"},
		{Workload: "vecadd", Machine: "nope"},
	}
	for _, req := range cases {
		if _, err := req.Resolve(); err == nil {
			t.Errorf("Resolve(%+v) should fail", req)
		} else if !strings.Contains(err.Error(), "valid:") {
			t.Errorf("Resolve(%+v) error should list valid options: %v", req, err)
		}
	}
	if _, err := (Request{Workload: "vecadd"}).Resolve(); err != nil {
		t.Errorf("valid request failed: %v", err)
	}
}

func TestCacheHit(t *testing.T) {
	c := NewCache(nil)
	key := Request{Workload: "vecadd"}.Key()
	var calls atomic.Int64
	fn := func() (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: "vecadd"}, nil
	}
	run1, cached, err := c.Do(context.Background(), key, fn)
	if err != nil || cached {
		t.Fatalf("first Do: cached=%v err=%v", cached, err)
	}
	run2, cached, err := c.Do(context.Background(), key, fn)
	if err != nil || !cached {
		t.Fatalf("second Do: cached=%v err=%v", cached, err)
	}
	if run1 != run2 {
		t.Error("cache returned a different record")
	}
	if calls.Load() != 1 {
		t.Errorf("fn calls = %d", calls.Load())
	}
	if c.metrics.cached.Load() != 1 {
		t.Errorf("cached metric = %d", c.metrics.cached.Load())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(nil)
	key := Request{Workload: "vecadd"}.Key()
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func() (*stats.Run, error) {
		calls.Add(1)
		close(entered)
		<-release
		return &stats.Run{Workload: "vecadd"}, nil
	}

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, cached, err := c.Do(context.Background(), key, fn); err != nil || cached {
			t.Errorf("leader: cached=%v err=%v", cached, err)
		}
	}()
	<-entered // leader's flight registered and executing

	const followers = 8
	var wg sync.WaitGroup
	var cachedCount atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run, cached, err := c.Do(context.Background(), key, fn)
			if err != nil || run == nil {
				t.Errorf("follower: %v", err)
				return
			}
			if cached {
				cachedCount.Add(1)
			}
		}()
	}
	close(release)
	wg.Wait()
	<-leaderDone

	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	if cachedCount.Load() != followers {
		t.Errorf("cached followers = %d, want %d", cachedCount.Load(), followers)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(nil)
	key := Request{Workload: "vecadd"}.Key()
	var calls atomic.Int64
	boom := errors.New("boom")
	fail := func() (*stats.Run, error) { calls.Add(1); return nil, boom }
	if _, _, err := c.Do(context.Background(), key, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Error("failed flight left a cache entry")
	}
	// A retry runs the job again and can succeed.
	run, cached, err := c.Do(context.Background(), key, func() (*stats.Run, error) {
		calls.Add(1)
		return &stats.Run{Workload: "vecadd"}, nil
	})
	if err != nil || cached || run == nil {
		t.Fatalf("retry: run=%v cached=%v err=%v", run, cached, err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d", calls.Load())
	}
}

func TestCacheFollowerCancellation(t *testing.T) {
	c := NewCache(nil)
	key := Request{Workload: "vecadd"}.Key()
	entered := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), key, func() (*stats.Run, error) {
		close(entered)
		<-release
		return &stats.Run{}, nil
	})
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, key, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled follower err = %v", err)
	}
	close(release)
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(nil)
	key := Request{Workload: "vecadd"}.Key()
	if _, ok := c.Get(key); ok {
		t.Error("empty cache reported a hit")
	}
	want := &stats.Run{Workload: "vecadd"}
	c.Do(context.Background(), key, func() (*stats.Run, error) { return want, nil })
	got, ok := c.Get(key)
	if !ok || got != want {
		t.Errorf("Get = %v, %v", got, ok)
	}
}
