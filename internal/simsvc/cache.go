package simsvc

import (
	"context"
	"encoding/json"
	"sync"

	"ladm/internal/stats"
	"ladm/internal/svcobs"
)

// Cache is a result cache keyed by JobKey with single-flight
// deduplication: concurrent Do calls for the same key run the underlying
// job once and share the record. Errors are not cached, so a failed job
// can be retried. With a DiskStore attached it becomes two-level —
// memory hit → store hit → compute → write-back — so results survive
// process restarts.
type Cache struct {
	metrics *Metrics
	store   *DiskStore

	mu      sync.Mutex
	entries map[JobKey]*cacheEntry
}

// cacheEntry is one key's flight and, once it lands, the record every
// hit, store hit and single-flight joiner of the key shares.
type cacheEntry struct {
	done chan struct{} // closed when the flight lands
	run  *stats.Run
	err  error

	// payload is run's RunPayload as it sits inside an indented JobView
	// (json.MarshalIndent with prefix and indent "  "), built by the
	// first response that serves the record from the cache and spliced
	// into every later one. A record never served from the cache never
	// builds it. nil with payloadOnce done means the record does not
	// encode.
	payloadOnce sync.Once
	payload     []byte
}

// record returns the entry's record; nil-safe, since a job that failed
// before reaching the cache has no entry.
func (e *cacheEntry) record() *stats.Run {
	if e == nil {
		return nil
	}
	return e.run
}

// payloadJSON returns the entry's encoded run payload, building it on
// first use; sync.Once keeps every later call to one atomic load.
func (e *cacheEntry) payloadJSON() []byte {
	e.payloadOnce.Do(func() {
		e.payload, _ = json.MarshalIndent(NewRunPayload(e.run), "  ", "  ")
	})
	return e.payload
}

// NewCache returns an empty cache reporting hits to metrics (nil: a
// fresh set).
func NewCache(m *Metrics) *Cache {
	if m == nil {
		m = NewMetrics()
	}
	return &Cache{metrics: m, entries: map[JobKey]*cacheEntry{}}
}

// SetStore attaches the second-level result store. Call before the
// cache starts serving; nil detaches it.
func (c *Cache) SetStore(store *DiskStore) {
	c.mu.Lock()
	c.store = store
	c.mu.Unlock()
}

// Get returns the completed record cached under key, if any.
func (c *Cache) Get(key JobKey) (*stats.Run, bool) {
	c.mu.Lock()
	e := c.entries[key]
	c.mu.Unlock()
	if e == nil {
		return nil, false
	}
	select {
	case <-e.done:
		return e.run, e.err == nil
	default:
		return nil, false // still in flight
	}
}

// Len returns the number of cached or in-flight entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Do returns the record cached under key, or runs fn once to produce it.
// Concurrent calls with the same key share one flight: the first caller
// executes fn, the rest wait for it (or for their own ctx). cached
// reports whether the result came from a previous or concurrent flight,
// or from the durable store — anything but a fresh simulation.
//
// With a store attached, the flight's owner consults it before running
// fn (memory hit → store hit → compute → write-back); the store lookup
// happens inside the single flight, so one restart-warm key costs one
// disk read no matter how many callers race on it.
func (c *Cache) Do(ctx context.Context, key JobKey, fn func() (*stats.Run, error)) (run *stats.Run, cached bool, err error) {
	e, cached, err := c.do(ctx, key, fn)
	if e == nil {
		return nil, cached, err
	}
	return e.run, cached, err
}

// do is Do returning the key's shared entry rather than its record, so
// the server can reach the encoded payload. The entry is nil when a
// joined flight failed or the caller stopped waiting for it.
func (c *Cache) do(ctx context.Context, key JobKey, fn func() (*stats.Run, error)) (e *cacheEntry, cached bool, err error) {
	tl := svcobs.TimelineFrom(ctx)
	tl.Mark(svcobs.StageCache)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil {
				// The flight we joined failed; report its error without
				// caching it (the entry was already removed).
				return nil, false, e.err
			}
			c.metrics.cached.Add(1)
			svcobs.Log(ctx).InfoContext(ctx, "simsvc: cache hit",
				"key", key.String(), "source", "memory")
			return e, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	e = &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	store := c.store
	c.mu.Unlock()

	if store != nil {
		tl.Mark(svcobs.StageStore)
		run, ok := store.GetRun(key)
		if !ok {
			// Another process sharing the store directory may have
			// finished this cell since we last scanned it; one rescan is
			// far cheaper than a recompute.
			if store.Rescan() > 0 {
				run, ok = store.GetRun(key)
			}
		}
		if ok {
			e.run = run
			close(e.done)
			c.metrics.cached.Add(1)
			svcobs.Log(ctx).InfoContext(ctx, "simsvc: cache hit",
				"key", key.String(), "source", "store")
			return e, true, nil
		}
		svcobs.Log(ctx).InfoContext(ctx, "simsvc: store probe miss",
			"key", key.String())
	}

	e.run, e.err = fn()
	if e.err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	} else if store != nil {
		store.PutRun(key, e.run)
	}
	close(e.done)
	return e, false, e.err
}
