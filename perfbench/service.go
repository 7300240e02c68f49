package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"ladm/internal/simsvc"
	"ladm/internal/svcobs"
)

// service is one in-process simsvc server on a loopback port, assembled
// the way cmd/ladmserve assembles it: pool, server, observer with an
// info-level logger, optional store, and the svcobs edge middleware.
// Log lines are formatted as in production and then discarded.
type service struct {
	url   string
	pool  *simsvc.Pool
	store *simsvc.DiskStore
	hs    *http.Server
	done  chan struct{}
}

func startService(workers int, store *simsvc.DiskStore, hooks *simHooks) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	obs := svcobs.NewObserver(svcobs.NewLogger(io.Discard, slog.LevelInfo, false))
	pool := simsvc.NewPool(simsvc.PoolConfig{Workers: workers, Simulate: hooks.simulate})
	srv := simsvc.NewServer(pool)
	srv.SetObserver(obs)
	if store != nil {
		srv.SetStore(store)
	}
	s := &service{
		url:   "http://" + ln.Addr().String(),
		pool:  pool,
		store: store,
		hs: &http.Server{
			Handler:           svcobs.Middleware(obs, simsvc.RouteLabel, srv.Handler()),
			ReadHeaderTimeout: 10 * time.Second,
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// scrape reads the server's GET /metrics exposition.
func (s *service) scrape(client *http.Client) (promText, error) {
	resp, err := client.Get(s.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", s.url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", s.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", s.url, resp.StatusCode)
	}
	return parseProm(string(b)), nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, then drains the pool and flushes the store.
func (s *service) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
	s.pool.Close()
	if s.store != nil {
		s.store.Close()
	}
}

// warmRequest names a cell outside the serve-zipf cell set.
var warmRequest = []byte(`{"workload":"sq-gemm","policy":"ladm","machine":"hier","scale":1024}`)

// fillRegistry posts warmRequest until the server's job registry holds
// simsvc.DefaultRetainJobs records, the bound at which it starts
// evicting one record per new job. A long-running server lives in that
// state; a fresh one reaches it after that many requests, so timing
// from a fresh start would mix two regimes in proportions that depend
// on how fast the host runs.
func fillRegistry(client *http.Client, url string, conns int) error {
	var next atomic.Int64
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		go func() {
			for next.Add(1) <= simsvc.DefaultRetainJobs {
				resp, err := client.Post(url+"/run", "application/json", bytes.NewReader(warmRequest))
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("warm-up request: status %d", resp.StatusCode)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for c := 0; c < conns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newClient returns an HTTP client holding at most conns connections
// per host, so load never exceeds the benchmark's concurrency.
func newClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	return &http.Client{Transport: tr}, tr
}
