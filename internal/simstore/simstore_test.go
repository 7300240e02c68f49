package simstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ladm/internal/stats"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	opts.Dir = dir
	if opts.Schema == "" {
		opts.Schema = "test/v1"
	}
	// Keep retry backoff out of test wall time.
	s, err := open(opts, retryLimits{1, time.Millisecond, 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	payload := []byte(`{"cycles": 42}`)
	s.Put("aabbcc", payload, stats.NewProvenance("test"))
	got, ok := s.Get("aabbcc")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, payload)
	}
	if _, ok := s.Get("ddeeff"); ok {
		t.Error("Get of unknown key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || !st.Healthy {
		t.Errorf("stats = %+v", st)
	}
}

// TestReopenPersists is the crash-recovery contract at the byte layer:
// a record written before a "crash" (Close + new Open) is served
// byte-identically afterwards.
func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(`{"cycles": 7, "tbs": 3}`)
	s1 := openTest(t, dir, Options{})
	s1.Put("cafe01", payload, stats.NewProvenance("test"))
	s1.Close()

	s2 := openTest(t, dir, Options{})
	got, ok := s2.Get("cafe01")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: Get = %q, %v; want the original payload", got, ok)
	}
	if st := s2.Stats(); st.Records != 1 || st.Bytes <= int64(len(payload)) {
		t.Errorf("reopened index: %+v", st)
	}
}

// TestPutAsyncFlushOnClose verifies the write-behind queue lands before
// Close returns — the durability guarantee the HTTP drain relies on.
func TestPutAsyncFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{})
	s1.PutAsync("feed02", []byte("payload"), stats.NewProvenance("test"))
	s1.Close()

	s2 := openTest(t, dir, Options{})
	if _, ok := s2.Get("feed02"); !ok {
		t.Fatal("asynchronous write did not survive Close + reopen")
	}
}

// TestBitFlipQuarantine flips one payload byte on disk and expects a
// miss, a corrupt count, and the damaged record preserved in quarantine.
func TestBitFlipQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	s.Put("beef03", []byte("precious result bytes"), stats.NewProvenance("test"))

	path := s.path("beef03")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("beef03"); ok {
		t.Fatal("corrupt record served as a hit")
	}
	st := s.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
	if !st.Healthy {
		t.Error("corruption degraded the store; it must stay healthy")
	}
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil || len(ents) != 1 {
		t.Fatalf("quarantine dir: %v entries, err %v; want 1", len(ents), err)
	}
	if !strings.HasPrefix(ents[0].Name(), "beef03") {
		t.Errorf("quarantined as %q", ents[0].Name())
	}
	// The key is forgotten: a rewrite works and serves again.
	s.Put("beef03", []byte("recomputed"), stats.NewProvenance("test"))
	if got, ok := s.Get("beef03"); !ok || string(got) != "recomputed" {
		t.Errorf("after recompute: %q, %v", got, ok)
	}
}

// TestSchemaMismatchQuarantine: a record written under another schema is
// corruption from this store's point of view.
func TestSchemaMismatchQuarantine(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{Schema: "old/v1"})
	s1.Put("0a0b0c", []byte("old-schema payload"), stats.NewProvenance("test"))
	s1.Close()

	s2 := openTest(t, dir, Options{Schema: "new/v2"})
	if _, ok := s2.Get("0a0b0c"); ok {
		t.Fatal("cross-schema record served as a hit")
	}
	if st := s2.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt = %d, want 1", st.Corrupt)
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 256)
	// Envelope overhead is ~200 bytes; cap to roughly two records.
	s := openTest(t, dir, Options{MaxBytes: 1100})
	s.Put("aa0001", payload, stats.NewProvenance("test"))
	s.Put("bb0002", payload, stats.NewProvenance("test"))
	// Touch aa0001 so bb0002 is the LRU victim. File mtimes are the LRU
	// clock; push them apart explicitly so the test is not at the mercy
	// of filesystem timestamp granularity.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(s.path("bb0002"), old, old)
	s.mu.Lock()
	s.index["bb0002"].atime = old
	s.mu.Unlock()
	if _, ok := s.Get("aa0001"); !ok {
		t.Fatal("touch read missed")
	}
	s.Put("cc0003", payload, stats.NewProvenance("test"))

	if _, ok := s.Get("bb0002"); ok {
		t.Error("LRU record survived eviction")
	}
	if _, ok := s.Get("aa0001"); !ok {
		t.Error("recently-read record was evicted")
	}
	if _, ok := s.Get("cc0003"); !ok {
		t.Error("just-written record was evicted")
	}
	st := s.Stats()
	if st.Evicted == 0 {
		t.Error("no eviction counted")
	}
	if st.Bytes > 1100 {
		t.Errorf("live bytes %d exceed the cap", st.Bytes)
	}
}

// TestDegradeOnIOError replaces a record file with a directory so reads
// fail with a non-transient error that is not ENOENT: the store must
// exhaust its retries, degrade, and turn every later call into a cheap
// no-op rather than an error.
func TestDegradeOnIOError(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	s.Put("dead04", []byte("payload"), stats.NewProvenance("test"))

	path := s.path("dead04")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get("dead04"); ok {
		t.Fatal("unreadable record served as a hit")
	}
	if s.Healthy() {
		t.Fatal("store still healthy after exhausting read retries")
	}
	st := s.Stats()
	if st.Retries == 0 {
		t.Error("no retries counted before degrading")
	}
	// Degraded: writes are dropped, reads miss, nothing errors.
	s.Put("feed05", []byte("ignored"), stats.NewProvenance("test"))
	if _, ok := s.Get("feed05"); ok {
		t.Error("degraded store served a write")
	}
	if st := s.Stats(); st.Dropped == 0 {
		t.Error("degraded write not counted as dropped")
	}
}

// TestOpenClearsTmp: crash residue in tmp/ must not survive Open.
func TestOpenClearsTmp(t *testing.T) {
	dir := t.TempDir()
	s1 := openTest(t, dir, Options{})
	s1.Close()
	orphan := filepath.Join(dir, tmpDir, "put-orphan")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	openTest(t, dir, Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("tmp orphan survived Open: %v", err)
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("Open with no dir succeeded")
	}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: file, Schema: "test/v1"}); err == nil {
		t.Error("Open over a regular file succeeded")
	}
}

// TestBackoff pins the shared retry delay: the undithered delay doubles
// from base up to the cap, every draw lands in [d/2, d], and attempt
// counts far past the cap neither overflow nor go negative.
func TestBackoff(t *testing.T) {
	const base, max = 25 * time.Millisecond, time.Second
	for _, tc := range []struct {
		attempt int
		d       time.Duration
	}{
		{0, 25 * time.Millisecond},
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{4, 400 * time.Millisecond},
		{5, 800 * time.Millisecond},
		{6, time.Second},
		{7, time.Second},
		{40, time.Second},
		{63, time.Second},
		{64, time.Second},
		{1000, time.Second},
	} {
		for i := 0; i < 200; i++ {
			if got := Backoff(base, max, tc.attempt); got < tc.d/2 || got > tc.d {
				t.Fatalf("Backoff(%v, %v, %d) = %v, want in [%v, %v]", base, max, tc.attempt, got, tc.d/2, tc.d)
			}
		}
	}
}
