// Package simstore is a durable, content-addressed result store: the
// second-level cache behind internal/simsvc's in-memory result map.
// Records are written crash-safely (serialize → temp file → fsync →
// atomic rename into place) as self-describing envelopes carrying the
// producer's key schema, a CRC-32C of the payload and run provenance.
// Reads never trust the disk: a record that fails validation is moved to
// a quarantine sidecar directory and reported as a miss, so corruption
// degrades to a re-simulation, never an error a client sees. The store
// is size-capped with LRU-by-access-time eviction, retries transient
// I/O errors with capped exponential backoff and jitter, and — when a
// disk refuses to cooperate — marks itself degraded and turns every
// operation into a cheap no-op so the service above keeps serving from
// memory alone.
package simstore

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladm/internal/stats"
)

// On-disk layout under Options.Dir:
//
//	objects/<k[:2]>/<key>.rec  live records (sharded by key prefix)
//	quarantine/<key>.<nanos>   records that failed validation
//	tmp/                       in-flight writes (cleared on Open)
const (
	objectsDir    = "objects"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
	recExt        = ".rec"
)

// Options configures a store.
type Options struct {
	// Dir is the store root; it is created if missing.
	Dir string
	// MaxBytes caps the summed size of live records (0 = unlimited).
	// Crossing the cap evicts least-recently-accessed records.
	MaxBytes int64
	// Schema is the producer's key schema (e.g. simsvc.KeySchema).
	// Records carrying any other schema are treated as corrupt.
	Schema string
	// Logf receives operational messages (nil: silent).
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Records int   // live records
	Bytes   int64 // summed live payload+envelope bytes
	Hits    int64 // Gets that returned a valid record
	Misses  int64 // Gets that found nothing
	Writes  int64 // records durably written
	// Corrupt counts records quarantined after failing validation.
	Corrupt int64
	// Evicted counts records removed by the size cap.
	Evicted int64
	// Retries counts backed-off retries of transient I/O errors.
	Retries int64
	// Dropped counts writes discarded because the store was degraded.
	Dropped int64
	// Healthy is false once the store has degraded to no-op mode.
	Healthy bool
}

// retryLimits shape the backoff on transient I/O errors: up to n
// retries, the first after base, doubling (jittered) up to max; running
// out degrades the store. Open applies the defaults below; in-package
// tests pass faster limits to open.
type retryLimits struct {
	n         int
	base, max time.Duration
}

const (
	defaultRetries   = 3
	defaultRetryBase = 25 * time.Millisecond
	defaultRetryMax  = time.Second
)

type entry struct {
	size  int64
	atime time.Time
}

type writeReq struct {
	key     string
	payload []byte
	prov    stats.Provenance
}

// Store is a durable content-addressed record store. All methods are
// safe for concurrent use.
type Store struct {
	dir      string
	schema   string
	maxBytes int64
	retry    retryLimits
	logf     func(string, ...any)

	mu    sync.Mutex
	index map[string]*entry
	total int64

	degraded atomic.Bool
	hits     atomic.Int64
	misses   atomic.Int64
	writes   atomic.Int64
	corrupt  atomic.Int64
	evicted  atomic.Int64
	retried  atomic.Int64
	dropped  atomic.Int64

	wmu    sync.Mutex
	wq     chan writeReq
	wg     sync.WaitGroup
	closed bool
}

// Open prepares the directory layout, clears crash residue from tmp/,
// and rebuilds the record index from objects/. An error here means the
// directory is unusable (permissions, not a directory, ...): callers
// should log it and run store-less.
func Open(opts Options) (*Store, error) {
	return open(opts, retryLimits{defaultRetries, defaultRetryBase, defaultRetryMax})
}

func open(opts Options, retry retryLimits) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("simstore: no directory")
	}
	s := &Store{
		dir:      opts.Dir,
		schema:   opts.Schema,
		maxBytes: opts.MaxBytes,
		retry:    retry,
		logf:     opts.Logf,
		index:    map[string]*entry{},
		wq:       make(chan writeReq, 64),
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, d := range []string{objectsDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(s.dir, d), 0o755); err != nil {
			return nil, fmt.Errorf("simstore: %w", err)
		}
	}
	// A crash mid-write leaves orphans in tmp/; they were never visible,
	// so deleting them is always safe.
	if ents, err := os.ReadDir(filepath.Join(s.dir, tmpDir)); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(s.dir, tmpDir, e.Name()))
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked("")
	s.mu.Unlock()
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// scan rebuilds the index from objects/, using each file's mtime as its
// last-access time (Get bumps mtime on every hit, so mtime is the LRU
// clock that survives restarts).
func (s *Store) scan() error {
	root := filepath.Join(s.dir, objectsDir)
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), recExt) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with deletion; skip
		}
		key := strings.TrimSuffix(d.Name(), recExt)
		s.index[key] = &entry{size: info.Size(), atime: info.ModTime()}
		s.total += info.Size()
		return nil
	})
}

// Rescan walks objects/ and indexes records written by other processes
// since Open (or the previous Rescan): the cross-process sharing
// primitive — two stores on the same directory see each other's
// completed writes without reopening. Keys already indexed keep their
// in-memory LRU clock; new keys enter with their file's mtime. Returns
// the number of records added. A degraded store rescans nothing.
func (s *Store) Rescan() int {
	if s.degraded.Load() {
		return 0
	}
	root := filepath.Join(s.dir, objectsDir)
	s.mu.Lock()
	defer s.mu.Unlock()
	added := 0
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), recExt) {
			return nil // walk errors degrade to "saw nothing new"
		}
		key := strings.TrimSuffix(d.Name(), recExt)
		if s.index[key] != nil {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with deletion; skip
		}
		s.index[key] = &entry{size: info.Size(), atime: info.ModTime()}
		s.total += info.Size()
		added++
		return nil
	})
	if added > 0 {
		s.evictLocked("")
		s.logf("simstore: rescan indexed %d records written since open", added)
	}
	return added
}

// Healthy reports whether the store is still operating (false once it
// has degraded to no-op mode after exhausting I/O retries).
func (s *Store) Healthy() bool { return !s.degraded.Load() }

// Stats returns the current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records, bytes := len(s.index), s.total
	s.mu.Unlock()
	return Stats{
		Records: records,
		Bytes:   bytes,
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
		Evicted: s.evicted.Load(),
		Retries: s.retried.Load(),
		Dropped: s.dropped.Load(),
		Healthy: !s.degraded.Load(),
	}
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Contains reports whether a live record is indexed under key. It is a
// pure index probe — no I/O, no validation, no LRU bump — so a caller
// that sees Contains() true followed by a Get miss knows the record was
// just quarantined or evicted, not absent all along.
func (s *Store) Contains(key string) bool {
	if s.degraded.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.index[key] != nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, objectsDir, shard, key+recExt)
}

// Backoff returns the delay before retry number attempt (0 for the
// first): d = base<<attempt capped at max (overflow-safe), jittered to a
// uniform draw in [d/2, d] so concurrent retriers spread out.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	d := max
	if base <= max>>attempt {
		d = base << attempt
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// withRetry runs fn, retrying transient errors with Backoff delays.
// Exhausting the retries degrades the store.
func (s *Store) withRetry(op string, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt >= s.retry.n {
			break
		}
		s.retried.Add(1)
		time.Sleep(Backoff(s.retry.base, s.retry.max, attempt))
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.logf("simstore: %s failed after %d retries (%v); degrading to store-less operation", op, s.retry.n, err)
	}
	return err
}

// Get returns the payload stored under key, or ok=false for a miss.
// Corrupt records are quarantined and reported as misses; transient I/O
// errors retry, then degrade the store and report a miss. Get never
// fails the caller.
func (s *Store) Get(key string) (payload []byte, ok bool) {
	if s.degraded.Load() {
		return nil, false
	}
	s.mu.Lock()
	e := s.index[key]
	s.mu.Unlock()
	if e == nil {
		s.misses.Add(1)
		return nil, false
	}
	path := s.path(key)
	var data []byte
	err := s.withRetry("read", func() error {
		var rerr error
		data, rerr = os.ReadFile(path)
		if os.IsNotExist(rerr) {
			// Not transient: the record is simply gone (eviction race,
			// external cleanup). Drop it from the index.
			data = nil
			return nil
		}
		return rerr
	})
	if err != nil || data == nil {
		if data == nil && err == nil {
			s.forget(key)
		}
		s.misses.Add(1)
		return nil, false
	}
	hdr, body, err := DecodeEnvelope(data)
	if err == nil && hdr.Schema != s.schema {
		err = corrupt("schema %q, store expects %q", hdr.Schema, s.schema)
	}
	if err == nil && hdr.Key != key {
		err = corrupt("record self-identifies as %q under key %q", hdr.Key, key)
	}
	if err != nil {
		s.quarantine(key, path, err)
		s.misses.Add(1)
		return nil, false
	}
	now := time.Now()
	// Bump mtime so LRU survives restarts; best-effort.
	os.Chtimes(path, now, now)
	s.mu.Lock()
	if e := s.index[key]; e != nil {
		e.atime = now
	}
	s.mu.Unlock()
	s.hits.Add(1)
	return body, true
}

// Quarantine moves the record stored under key to the quarantine
// directory and counts it as corrupt. Exported for layers above that
// validate payloads more deeply than the envelope can (e.g. JSON shape).
func (s *Store) Quarantine(key string, reason error) {
	s.quarantine(key, s.path(key), reason)
}

func (s *Store) quarantine(key, path string, reason error) {
	s.corrupt.Add(1)
	dst := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		// Can't preserve the evidence; at least stop serving it.
		os.Remove(path)
		dst = "(removed)"
	}
	s.forget(key)
	s.logf("simstore: quarantined %s -> %s: %v", key, dst, reason)
}

// forget drops key from the index (the file is already gone or going).
func (s *Store) forget(key string) {
	s.mu.Lock()
	if e := s.index[key]; e != nil {
		s.total -= e.size
		delete(s.index, key)
	}
	s.mu.Unlock()
}

// Put durably stores payload under key: envelope → temp file → fsync →
// atomic rename → directory fsync. Transient errors retry, then degrade
// the store; Put never fails the caller.
func (s *Store) Put(key string, payload []byte, prov stats.Provenance) {
	if s.degraded.Load() {
		s.dropped.Add(1)
		return
	}
	data, err := EncodeEnvelope(key, s.schema, payload, prov)
	if err != nil {
		s.logf("simstore: %v", err)
		return
	}
	path := s.path(key)
	err = s.withRetry("write", func() error {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*")
		if err != nil {
			return err
		}
		defer os.Remove(tmp.Name()) // no-op after a successful rename
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			return err
		}
		// Make the rename itself durable; best-effort (some filesystems
		// refuse directory fsync).
		if d, err := os.Open(filepath.Dir(path)); err == nil {
			d.Sync()
			d.Close()
		}
		return nil
	})
	if err != nil {
		s.dropped.Add(1)
		return
	}
	s.writes.Add(1)
	s.mu.Lock()
	if old := s.index[key]; old != nil {
		s.total -= old.size
	}
	s.index[key] = &entry{size: int64(len(data)), atime: time.Now()}
	s.total += int64(len(data))
	s.evictLocked(key)
	s.mu.Unlock()
}

// PutAsync queues a durable write and returns immediately; Close (or a
// full queue, which falls back to a synchronous write) guarantees it
// lands. The write-behind keeps store I/O off the simulation workers'
// completion path.
func (s *Store) PutAsync(key string, payload []byte, prov stats.Provenance) {
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		s.Put(key, payload, prov)
		return
	}
	select {
	case s.wq <- writeReq{key, payload, prov}:
		s.wmu.Unlock()
	default:
		s.wmu.Unlock()
		s.Put(key, payload, prov)
	}
}

func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.wq {
		s.Put(req.key, req.payload, req.prov)
	}
}

// Close flushes pending write-backs and stops the writer. The store
// must not be used after Close.
func (s *Store) Close() {
	s.wmu.Lock()
	if s.closed {
		s.wmu.Unlock()
		return
	}
	s.closed = true
	close(s.wq)
	s.wmu.Unlock()
	s.wg.Wait()
}

// evictLocked removes least-recently-accessed records until the live
// set fits maxBytes, never evicting keep (the record just written — a
// store smaller than its newest record would otherwise thrash).
// Requires s.mu.
func (s *Store) evictLocked(keep string) {
	if s.maxBytes <= 0 || s.total <= s.maxBytes {
		return
	}
	type victim struct {
		key string
		e   *entry
	}
	victims := make([]victim, 0, len(s.index))
	for k, e := range s.index {
		if k != keep {
			victims = append(victims, victim{k, e})
		}
	}
	sort.Slice(victims, func(i, j int) bool {
		if !victims[i].e.atime.Equal(victims[j].e.atime) {
			return victims[i].e.atime.Before(victims[j].e.atime)
		}
		return victims[i].key < victims[j].key
	})
	for _, v := range victims {
		if s.total <= s.maxBytes {
			break
		}
		os.Remove(s.path(v.key))
		s.total -= v.e.size
		delete(s.index, v.key)
		s.evicted.Add(1)
	}
}
