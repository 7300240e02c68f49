package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func tiny() *Cache {
	// 4 sets, 2-way, 128B lines, 32B sectors: 1 KB.
	return New(Config{Sets: 4, Assoc: 2, LineBytes: 128, SectorBytes: 32})
}

func TestGeometry(t *testing.T) {
	c := tiny()
	if got := c.Config().SectorsPerLine(); got != 4 {
		t.Errorf("SectorsPerLine = %d, want 4", got)
	}
	if got := c.Config().SizeBytes(); got != 1024 {
		t.Errorf("SizeBytes = %d, want 1024", got)
	}
	if got := c.FullMask(); got != 0b1111 {
		t.Errorf("FullMask = %b, want 1111", got)
	}
}

func TestMaskFor(t *testing.T) {
	c := tiny()
	cases := []struct {
		addr  uint64
		bytes int
		want  SectorMask
	}{
		{0, 4, 0b0001},
		{0, 32, 0b0001},
		{0, 33, 0b0011},
		{32, 32, 0b0010},
		{96, 32, 0b1000},
		{0, 128, 0b1111},
		{64, 128, 0b1100}, // clamped at line end
		{1000, 4, 0b1000}, // 1000 % 128 = 104 -> sector 3
	}
	for _, tc := range cases {
		if got := c.MaskFor(tc.addr, tc.bytes); got != tc.want {
			t.Errorf("MaskFor(%d,%d) = %04b, want %04b", tc.addr, tc.bytes, got, tc.want)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	r := c.Access(0, 0b0001, true, false)
	if r.HitMask != 0 || r.MissMask != 0b0001 || r.Evicted || r.Bypassed {
		t.Errorf("first access: %+v", r)
	}
	r = c.Access(0, 0b0001, true, false)
	if r.HitMask != 0b0001 || r.MissMask != 0 {
		t.Errorf("second access should hit: %+v", r)
	}
	// A different sector of the same line: line hit, sector miss.
	r = c.Access(32, 0b0010, true, false)
	if r.HitMask != 0 || r.MissMask != 0b0010 {
		t.Errorf("sector miss on resident line: %+v", r)
	}
	st := c.Stats()
	if st.LineHits != 2 || st.LineMisses != 1 {
		t.Errorf("line stats: %+v", st)
	}
	if st.SectorHits != 1 || st.SectorMisses != 2 {
		t.Errorf("sector stats: %+v", st)
	}
}

func TestBypass(t *testing.T) {
	c := tiny()
	r := c.Access(0, 0b0001, false, false)
	if !r.Bypassed {
		t.Error("miss without allocate must report bypass")
	}
	if c.LiveLines() != 0 {
		t.Error("bypassed access must not install a line")
	}
	if c.Stats().Bypasses != 1 {
		t.Errorf("bypass count = %d", c.Stats().Bypasses)
	}
	// Partial presence: allocate=false still reads the valid sectors.
	c.Access(0, 0b0001, true, false)
	r = c.Access(0, 0b0011, false, false)
	if r.HitMask != 0b0001 || r.MissMask != 0b0010 || r.Bypassed {
		t.Errorf("partial probe without allocate: %+v", r)
	}
	// The missing sector must remain missing (no fill without allocate).
	if got := c.Probe(0, 0b0010); got != 0 {
		t.Error("allocate=false filled a sector")
	}
}

// collidingLines returns n distinct line addresses mapping to address 0's
// set under the hashed index.
func collidingLines(c *Cache, n int) []uint64 {
	out := []uint64{0}
	want := c.SetIndex(0)
	for a := uint64(128); len(out) < n; a += 128 {
		if c.SetIndex(a) == want {
			out = append(out, a)
		}
	}
	return out
}

func TestSetIndexSpreadsStrides(t *testing.T) {
	// Power-of-two strides must not camp on one set: walk 64 lines at a
	// 64 KB stride and require more than one set to be touched.
	c := New(Config{Sets: 512, Assoc: 4, LineBytes: 128, SectorBytes: 32})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[c.SetIndex(uint64(i)*65536)] = true
	}
	if len(seen) < 8 {
		t.Errorf("64 KB stride touched only %d sets", len(seen))
	}
	// And the index stays in range for arbitrary addresses.
	for a := uint64(0); a < 1<<20; a += 12345 {
		if s := c.SetIndex(a); s < 0 || s >= 512 {
			t.Fatalf("SetIndex(%d) = %d out of range", a, s)
		}
	}
}

// TestSetIndexMatchesDivisionFold pins the shift/mask SetIndex to the
// division form of the XOR fold, for power-of-two and other set counts.
func TestSetIndexMatchesDivisionFold(t *testing.T) {
	fold := func(addr uint64, lineBytes, sets int) int {
		x := addr / uint64(lineBytes)
		n := uint64(sets)
		x ^= x / n
		x ^= x / (n * n)
		return int(x % n)
	}
	r := rand.New(rand.NewSource(3))
	for _, sets := range []int{1, 2, 64, 96, 128, 500, 512, 1 << 20} {
		for _, lineBytes := range []int{32, 128} {
			c := New(Config{Sets: sets, Assoc: 1, LineBytes: lineBytes, SectorBytes: 32})
			for i := 0; i < 5000; i++ {
				addr := r.Uint64()
				if i%2 == 0 {
					addr >>= uint(r.Intn(64))
				}
				if got, want := c.SetIndex(addr), fold(addr, lineBytes, sets); got != want {
					t.Fatalf("sets %d line %d: SetIndex(%#x) = %d, fold %d", sets, lineBytes, addr, got, want)
				}
			}
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	lines := collidingLines(c, 3)
	c.Access(lines[0], 0b0001, true, false)
	c.Access(lines[1], 0b0001, true, false)
	c.Access(lines[0], 0b0001, true, false) // touch line 0: lines[1] becomes LRU
	r := c.Access(lines[2], 0b0001, true, false)
	if !r.Evicted {
		t.Error("third distinct line in 2-way set must evict")
	}
	if c.Probe(lines[1], 0b0001) != 0 {
		t.Error("LRU line should have been evicted")
	}
	if c.Probe(lines[0], 0b0001) == 0 {
		t.Error("MRU line should have survived")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := tiny()
	lines := collidingLines(c, 3)
	c.Access(lines[0], 0b0011, true, true) // store two sectors
	c.Access(lines[1], 0b0001, true, false)
	r := c.Access(lines[2], 0b0001, true, false) // evicts lines[0] (LRU)
	if !r.Evicted || r.WritebackSectors != 2 {
		t.Errorf("expected eviction with 2 writeback sectors, got %+v", r)
	}
	if r.VictimAddr != lines[0] {
		t.Errorf("victim addr = %x, want %x", r.VictimAddr, lines[0])
	}
	if c.Stats().WritebackSecs != 2 {
		t.Errorf("writeback stat = %d", c.Stats().WritebackSecs)
	}
}

func TestDirtyOnHit(t *testing.T) {
	c := tiny()
	c.Access(0, 0b0001, true, false)
	c.Access(0, 0b0001, true, true) // store hit marks dirty
	wb := c.InvalidateAll()
	if wb != 1 {
		t.Errorf("InvalidateAll flushed %d dirty sectors, want 1", wb)
	}
	if c.LiveLines() != 0 {
		t.Error("InvalidateAll left live lines")
	}
}

func TestCleanFillClearsDirty(t *testing.T) {
	c := tiny()
	lines := collidingLines(c, 3)
	c.Access(lines[0], 0b0001, true, true) // dirty
	c.Access(lines[1], 0b0001, true, true) // dirty, same set
	// Evict lines[0] by filling lines[2] clean; the victim's dirty sector
	// is flushed and the new line must be clean.
	c.Access(lines[2], 0b0001, true, false)
	if wb := c.InvalidateAll(); wb != 1 {
		t.Errorf("only one dirty sector should remain, flushed %d", wb)
	}
}

func TestHitRate(t *testing.T) {
	c := tiny()
	c.Access(0, 0b0001, true, false)
	c.Access(0, 0b0001, true, false)
	c.Access(0, 0b0001, true, false)
	if hr := c.Stats().HitRate(); hr < 0.66 || hr > 0.67 {
		t.Errorf("hit rate = %f, want 2/3", hr)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	bad := []Config{
		{Sets: 0, Assoc: 2, LineBytes: 128, SectorBytes: 32},
		{Sets: 4, Assoc: 2, LineBytes: 100, SectorBytes: 32},
		{Sets: 4, Assoc: 2, LineBytes: 1024, SectorBytes: 32}, // 32 sectors > 8
		{Sets: 4, Assoc: 2, LineBytes: 96, SectorBytes: 32},   // not a power of two
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	c := tiny()
	defer func() {
		if recover() == nil {
			t.Error("empty mask should panic")
		}
	}()
	c.Access(0, 0, true, false)
}

// Property: after any access sequence with allocation, probing an address
// that was just accessed with allocate=true hits, and LiveLines never
// exceeds capacity.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := tiny()
		capacity := 4 * 2
		for i := 0; i < 200; i++ {
			addr := uint64(r.Intn(64)) * 128
			mask := SectorMask(1 + r.Intn(15))
			alloc := r.Intn(3) > 0
			dirty := r.Intn(2) == 0
			c.Access(addr, mask, alloc, dirty)
			if alloc && c.Probe(addr, mask) != mask {
				return false // just-filled sectors must be present
			}
			if c.LiveLines() > capacity {
				return false
			}
		}
		st := c.Stats()
		return st.SectorHits+st.SectorMisses > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: stats conservation — every access accounts each requested
// sector exactly once as hit or miss.
func TestSectorConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := tiny()
		var requested uint64
		for i := 0; i < 100; i++ {
			addr := uint64(r.Intn(32)) * 128
			mask := SectorMask(1 + r.Intn(15))
			requested += uint64(popcount(mask))
			c.Access(addr, mask, r.Intn(2) == 0, false)
		}
		st := c.Stats()
		return st.SectorHits+st.SectorMisses == requested
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	c.Access(0, 0b1111, true, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0, 0b1111, true, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := New(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*128, 0b1111, true, false)
	}
}

// fullScanInvalidate is the oracle for InvalidateAll: the brute-force
// form that visits every way of every set, live or not.
func fullScanInvalidate(c *Cache) (writebackSectors int) {
	for i := range c.lines {
		if c.lines[i].live {
			writebackSectors += popcount(c.lines[i].dirty)
		}
		c.lines[i] = line{}
	}
	c.resident = 0
	c.stats.WritebackSecs += uint64(writebackSectors)
	return writebackSectors
}

// TestInvalidateMatchesFullScan runs one random mix of Access, Probe
// and InvalidateAll against two caches, invalidating one with
// InvalidateAll's live-prefix walk and the other with the full-scan
// oracle, and requires every result, writeback count and book to agree.
func TestInvalidateMatchesFullScan(t *testing.T) {
	var flushed, bypasses uint64 // coverage: dirty flushes and allocate=false misses
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Sets: 1 + r.Intn(8), Assoc: 1 + r.Intn(6), LineBytes: 128, SectorBytes: 32}
		got, want := New(cfg), New(cfg)
		lines := 4 * cfg.Sets * cfg.Assoc // enough to evict, few enough to hit
		for i := 0; i < 400; i++ {
			addr := uint64(r.Intn(lines))*128 + uint64(r.Intn(128))
			mask := SectorMask(1 + r.Intn(15))
			switch op := r.Intn(20); {
			case op == 0:
				g, w := got.InvalidateAll(), fullScanInvalidate(want)
				if g != w {
					t.Logf("seed %d op %d: InvalidateAll wrote back %d, full scan %d", seed, i, g, w)
					return false
				}
				flushed += uint64(g)
			case op < 5:
				if g, w := got.Probe(addr, mask), want.Probe(addr, mask); g != w {
					t.Logf("seed %d op %d: Probe = %04b, full scan %04b", seed, i, g, w)
					return false
				}
			default:
				alloc, dirty := r.Intn(4) > 0, r.Intn(3) == 0
				if g, w := got.Access(addr, mask, alloc, dirty), want.Access(addr, mask, alloc, dirty); g != w {
					t.Logf("seed %d op %d: Access = %+v, full scan %+v", seed, i, g, w)
					return false
				}
			}
			if got.Stats() != want.Stats() || got.ResidentSectors() != want.ResidentSectors() ||
				got.LiveLines() != want.LiveLines() {
				t.Logf("seed %d op %d: books %+v/%d/%d, full scan %+v/%d/%d", seed, i,
					got.Stats(), got.ResidentSectors(), got.LiveLines(),
					want.Stats(), want.ResidentSectors(), want.LiveLines())
				return false
			}
			if err := got.CheckPrefix(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		bypasses += got.Stats().Bypasses
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if flushed == 0 || bypasses == 0 {
		t.Errorf("sequences never flushed a dirty sector (%d) or bypassed (%d)", flushed, bypasses)
	}
}

// TestUntouchedCache pins the empty cache a machine's unused L1s and L2
// slices stay in: no line array until the first Access, and every
// query answers as for an empty cache.
func TestUntouchedCache(t *testing.T) {
	c := New(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	if c.lines != nil {
		t.Errorf("New allocated %d lines before any access", len(c.lines))
	}
	if hit := c.Probe(0x1000, 0b1111); hit != 0 {
		t.Errorf("Probe on an untouched cache hit %04b", hit)
	}
	if wb := c.InvalidateAll(); wb != 0 {
		t.Errorf("InvalidateAll on an untouched cache wrote back %d sectors", wb)
	}
	if n, r := c.LiveLines(), c.ResidentSectors(); n != 0 || r != 0 {
		t.Errorf("untouched cache: %d live lines, %d resident sectors", n, r)
	}
	if err := c.CheckPrefix(); err != nil {
		t.Error(err)
	}
	if c.lines != nil {
		t.Error("a query other than Access allocated the line array")
	}
	c.Access(0x1000, 0b0001, true, false)
	if len(c.lines) != 512*16 {
		t.Errorf("first Access allocated %d lines, want %d", len(c.lines), 512*16)
	}
}

// TestCheckPrefix pins the checker itself on hand-broken sets.
func TestCheckPrefix(t *testing.T) {
	c := tiny()
	c.Access(0, 0b0001, true, true)
	if err := c.CheckPrefix(); err != nil {
		t.Fatal(err)
	}
	set := c.SetIndex(0) * c.cfg.Assoc
	c.lines[set], c.lines[set+1] = c.lines[set+1], c.lines[set]
	if c.CheckPrefix() == nil {
		t.Error("a live way after a dead way passed")
	}
	c.lines[set], c.lines[set+1] = c.lines[set+1], c.lines[set]
	c.lines[set+1].tag = 7
	if c.CheckPrefix() == nil {
		t.Error("a dead way with a stale tag passed")
	}
}
