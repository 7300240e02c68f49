package cache

import (
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

// newCache returns one cache of the given geometry.
func newCache(cfg Config) *Cache { return &NewLevel(nil, cfg, 1)[0] }

func tiny() *Cache {
	// 4 sets, 2-way, 128B lines, 32B sectors: 1 KB.
	return newCache(Config{Sets: 4, Assoc: 2, LineBytes: 128, SectorBytes: 32})
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
	c := newCache(Config{Sets: 512, Assoc: 4, LineBytes: 128, SectorBytes: 32})
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
			c := newCache(Config{Sets: sets, Assoc: 1, LineBytes: lineBytes, SectorBytes: 32})
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
			NewLevel(nil, cfg, 1)
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
	c := newCache(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	c.Access(0, 0b1111, true, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0, 0b1111, true, false)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c := newCache(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)*128, 0b1111, true, false)
	}
}

// fullScanInvalidate is the oracle for InvalidateAll: the brute-force
// form that visits every way of every set, live or not.
func fullScanInvalidate(c *Cache) (writebackSectors int) {
	for _, pg := range c.pages {
		for i := range pg {
			if pg[i].live {
				writebackSectors += popcount(pg[i].dirty)
			}
			pg[i] = line{}
		}
	}
	c.resident = 0
	c.stats.WritebackSecs += uint64(writebackSectors)
	return writebackSectors
}

// allocatedPages counts c's pages that exist.
func allocatedPages(c *Cache) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// hotLines returns per line addresses mapping to each of up to k sets
// drawn at random, so a sequence over them hits and evicts on sets
// that lie on different pages.
func hotLines(r *rand.Rand, c *Cache, k, per int) []uint64 {
	want := make(map[int]int)
	for len(want) < min(k, c.cfg.Sets) {
		want[r.Intn(c.cfg.Sets)] = per
	}
	var out []uint64
	for a := uint64(0); len(out) < len(want)*per; a += uint64(c.cfg.LineBytes) {
		if s := c.SetIndex(a); want[s] > 0 {
			want[s]--
			out = append(out, a)
		}
	}
	return out
}

// TestInvalidateMatchesFullScan runs one random mix of Access, Probe
// and InvalidateAll against two caches, invalidating one with
// InvalidateAll's live-prefix walk and the other with the full-scan
// oracle, and requires every result, writeback count and book to agree.
// Geometries span up to four pages, and some end in a partial page.
func TestInvalidateMatchesFullScan(t *testing.T) {
	fixed := []Config{
		{Sets: 100, Assoc: 16, LineBytes: 128, SectorBytes: 32},  // three pages of 32 sets and one of 4
		{Sets: 3072, Assoc: 16, LineBytes: 128, SectorBytes: 32}, // a dgx L2 slice: 96 pages
		{Sets: 128, Assoc: 4, LineBytes: 128, SectorBytes: 32},   // an L1: one page
	}
	var flushed, bypasses uint64 // coverage: dirty flushes and allocate=false misses
	var spanned int              // coverage: sequences that touched several pages
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Sets: 1, Assoc: 1 + r.Intn(6), LineBytes: 128, SectorBytes: 32}
		if r.Intn(3) == 0 {
			cfg.Assoc = 16
		}
		cfg.Sets += r.Intn(4 * (newCache(cfg).pageMask + 1)) // up to four pages
		if r.Intn(4) == 0 {
			cfg = fixed[r.Intn(len(fixed))]
		}
		got, want := newCache(cfg), newCache(cfg)
		hot := hotLines(r, got, 6, cfg.Assoc+2) // enough to evict, few enough to hit
		for i := 0; i < 400; i++ {
			addr := hot[r.Intn(len(hot))]
			if r.Intn(8) == 0 { // anywhere: first touches of other pages
				addr = uint64(r.Intn(4*cfg.Sets*cfg.Assoc)) * 128
			}
			addr += uint64(r.Intn(128))
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
		if allocatedPages(got) > 1 {
			spanned++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if flushed == 0 || bypasses == 0 || spanned == 0 {
		t.Errorf("sequences never flushed a dirty sector (%d), bypassed (%d) or spanned pages (%d)",
			flushed, bypasses, spanned)
	}
}

// TestUntouchedCache pins the empty cache a machine's unused L1s and L2
// slices stay in: no page table until the first Access, every query
// answering as for an empty cache, and then only the touched page.
func TestUntouchedCache(t *testing.T) {
	c := newCache(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	if c.pages != nil {
		t.Errorf("New allocated a table of %d pages before any access", len(c.pages))
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
	if c.pages != nil {
		t.Error("a query other than Access allocated the page table")
	}
	c.Access(0x1000, 0b0001, true, false)
	if len(c.pages) != 16 {
		t.Fatalf("page table has %d pages, want 512 sets / 32 per page = 16", len(c.pages))
	}
	lines := 0
	for _, pg := range c.pages {
		lines += cap(pg)
	}
	if n := allocatedPages(c); n != 1 || lines != 32*16 {
		t.Errorf("first Access allocated %d pages of %d lines in all, want 1 page of %d", n, lines, 32*16)
	}
	// A Probe of a set on another page misses without allocating it.
	if hit := c.Probe(0x1000+256*128, 0b0001); hit != 0 || allocatedPages(c) != 1 {
		t.Errorf("Probe on an untouched page: hit %04b, %d pages allocated", hit, allocatedPages(c))
	}
}

// TestNewLevel pins that the caches of a level share their geometry
// and nothing else: filling one leaves its neighbours untouched.
func TestNewLevel(t *testing.T) {
	cfg := Config{Sets: 128, Assoc: 4, LineBytes: 128, SectorBytes: 32}
	cs := NewLevel(nil, cfg, 3)
	if len(cs) != 3 {
		t.Fatalf("NewLevel made %d caches, want 3", len(cs))
	}
	cs[1].Access(0x1000, 0b0011, true, false)
	for i := range cs {
		if cs[i].Config() != cfg {
			t.Errorf("cache %d has geometry %+v, want %+v", i, cs[i].Config(), cfg)
		}
		want := SectorMask(0)
		if i == 1 {
			want = 0b0011
		}
		if hit := cs[i].Probe(0x1000, 0b1111); hit != want {
			t.Errorf("cache %d holds %04b of the line, want %04b", i, hit, want)
		}
		if untouched := cs[i].pages == nil; untouched != (i != 1) {
			t.Errorf("cache %d: page table allocated = %v", i, !untouched)
		}
	}
}

// TestNewLevelReusesSlice pins that a level built into a slice with the
// capacity reuses its array and keeps nothing else of the caches it
// held: geometry, counters, occupancy and pages are a fresh level's,
// and a slice too small is replaced.
func TestNewLevelReusesSlice(t *testing.T) {
	old := NewLevel(nil, Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32}, 4)
	for i := range old {
		old[i].Access(uint64(i)<<12, 0b0101, true, true)
	}
	cfg := Config{Sets: 128, Assoc: 4, LineBytes: 128, SectorBytes: 32}
	cs := NewLevel(old, cfg, 3)
	if len(cs) != 3 || &cs[0] != &old[0] {
		t.Fatalf("NewLevel into a 4-cache slice made %d caches, reused the array = %v", len(cs), &cs[0] == &old[0])
	}
	fresh := NewLevel(nil, cfg, 1)
	for i := range cs {
		if cs[i].geometry != fresh[0].geometry || cs[i].Stats() != (Stats{}) ||
			cs[i].ResidentSectors() != 0 || cs[i].pages != nil || cs[i].tick != 0 {
			t.Errorf("reused cache %d is not a fresh one: geometry %+v, stats %+v, %d resident, %d pages",
				i, cs[i].geometry, cs[i].Stats(), cs[i].ResidentSectors(), len(cs[i].pages))
		}
	}
	if grown := NewLevel(cs, cfg, 5); len(grown) != 5 || &grown[0] == &cs[0] {
		t.Errorf("NewLevel into a 4-cache slice for 5 caches: %d caches, reused the array = %v", len(grown), &grown[0] == &cs[0])
	}
}

// TestFullTouchAllocatesSetsTimesAssoc pins that pages cost nothing over
// the dense array: touching every set allocates exactly Sets×Assoc
// lines, with every geometry of the machines in internal/arch, a set
// count that ends in a partial page and a way count too large for one
// set per page.
func TestFullTouchAllocatesSetsTimesAssoc(t *testing.T) {
	for _, g := range []struct{ sets, assoc, pages int }{
		{128, 4, 1},     // L1
		{512, 16, 16},   // hier L2 slice
		{2048, 16, 64},  // xbar, ring
		{3072, 16, 96},  // dgx
		{8192, 16, 256}, // monolithic
		{100, 16, 4},    // partial last page
		{1, 3, 1},
		{7, 1000, 7}, // one set per page
	} {
		c := newCache(Config{Sets: g.sets, Assoc: g.assoc, LineBytes: 128, SectorBytes: 32})
		// Line x < Sets maps to set x, so lines 0..Sets-1 touch every set.
		for x := 0; x < g.sets; x++ {
			c.Access(uint64(x)*128, 0b0001, true, false)
		}
		lines := 0
		for _, pg := range c.pages {
			lines += cap(pg)
		}
		if len(c.pages) != g.pages || allocatedPages(c) != g.pages || lines != g.sets*g.assoc {
			t.Errorf("%d×%d: %d of %d pages allocated, %d lines, want %d pages and %d lines",
				g.sets, g.assoc, allocatedPages(c), len(c.pages), lines, g.pages, g.sets*g.assoc)
		}
		if n := c.LiveLines(); n != g.sets {
			t.Errorf("%d×%d: %d live lines after touching every set once", g.sets, g.assoc, n)
		}
	}
}

// TestCheckPrefix pins the checker itself on hand-broken sets.
func TestCheckPrefix(t *testing.T) {
	c := tiny()
	c.Access(0, 0b0001, true, true)
	if err := c.CheckPrefix(); err != nil {
		t.Fatal(err)
	}
	set := c.set(c.SetIndex(0))
	set[0], set[1] = set[1], set[0]
	if c.CheckPrefix() == nil {
		t.Error("a live way after a dead way passed")
	}
	set[0], set[1] = set[1], set[0]
	set[1].tag = 7
	if c.CheckPrefix() == nil {
		t.Error("a dead way with a stale tag passed")
	}

	// On a cache of several pages, a broken set on a later page is
	// found and named by its set index.
	c = newCache(Config{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32})
	c.Access(0, 0b0001, true, false)
	c.Access(100*128, 0b0001, true, false) // line 100 maps to set 100, page 3
	if err := c.CheckPrefix(); err != nil {
		t.Fatal(err)
	}
	set = c.set(100)
	set[0], set[1] = set[1], set[0]
	if err := c.CheckPrefix(); err == nil || !strings.Contains(err.Error(), "set 100 way 1 ") {
		t.Errorf("a live way after a dead way on page 3: %v", err)
	}
	set[0], set[1] = set[1], set[0]
	set[2].dirty = 1
	if err := c.CheckPrefix(); err == nil || !strings.Contains(err.Error(), "set 100 way 2 ") {
		t.Errorf("a dead way with a stale dirty mask on page 3: %v", err)
	}
}

// TestReleaseZeroesPages pins the page lifecycle on the machines' L1
// and L2 geometries: Release empties a cache and keeps its Stats, a
// fresh cache's pages taken from the pool after it are zero in every
// way, and the released cache starts a new page table on its next
// Access.
func TestReleaseZeroesPages(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would empty the pool
	reused := 0
	for _, cfg := range []Config{
		{Sets: 128, Assoc: 4, LineBytes: 128, SectorBytes: 32},   // L1
		{Sets: 512, Assoc: 16, LineBytes: 128, SectorBytes: 32},  // hier L2 slice
		{Sets: 3072, Assoc: 16, LineBytes: 128, SectorBytes: 32}, // dgx L2 slice
	} {
		// Lines 0 to Sets×Assoc-1 land on each set Assoc times: store
		// to every way of every set.
		c := newCache(cfg)
		var addrs []uint64
		for x := 0; x < cfg.Sets*cfg.Assoc; x++ {
			addrs = append(addrs, uint64(x)*128)
			c.Access(addrs[x], c.FullMask(), true, true)
		}
		if n := c.LiveLines(); n != cfg.Sets*cfg.Assoc {
			t.Fatalf("%d×%d: %d live lines after filling every way", cfg.Sets, cfg.Assoc, n)
		}
		released := make(map[*line]bool)
		for _, pg := range c.pages {
			released[&pg[0]] = true
		}
		st := c.Stats()
		c.Release()
		if c.Stats() != st {
			t.Errorf("%d×%d: Release changed Stats from %+v to %+v", cfg.Sets, cfg.Assoc, st, c.Stats())
		}
		if c.pages != nil || c.LiveLines() != 0 || c.ResidentSectors() != 0 {
			t.Errorf("%d×%d: released cache holds %d pages, %d live lines, %d resident sectors",
				cfg.Sets, cfg.Assoc, len(c.pages), c.LiveLines(), c.ResidentSectors())
		}

		fresh := newCache(cfg)
		fresh.pages = make([][]line, len(released))
		for p := range fresh.pages {
			pg := fresh.newPage(p)
			if released[&pg[0]] {
				reused++
			}
			for i := range pg {
				if pg[i] != (line{}) {
					t.Fatalf("%d×%d: page %d line %d of a fresh cache is %+v", cfg.Sets, cfg.Assoc, p, i, pg[i])
				}
			}
		}
		for _, a := range addrs {
			if hit := c.Probe(a, c.FullMask()); hit != 0 {
				t.Fatalf("%d×%d: released cache hit %04b at %#x", cfg.Sets, cfg.Assoc, hit, a)
			}
			if hit := fresh.Probe(a, fresh.FullMask()); hit != 0 {
				t.Fatalf("%d×%d: fresh cache hit %04b at %#x", cfg.Sets, cfg.Assoc, hit, a)
			}
		}

		c.Access(addrs[0], 0b0001, true, false)
		if len(c.pages) != len(released) || allocatedPages(c) != 1 {
			t.Errorf("%d×%d: Access after Release made a table of %d pages, %d taken; want %d, 1",
				cfg.Sets, cfg.Assoc, len(c.pages), allocatedPages(c), len(released))
		}
	}
	if reused == 0 {
		t.Error("no fresh page came from the released caches")
	}
}

// TestReleaseLeavesOddPages pins that only full pages are pooled: a
// partial last page and a set too large to share a page are left to
// the GC as they are, while the full pages beside them are zeroed.
func TestReleaseLeavesOddPages(t *testing.T) {
	for _, g := range []struct{ sets, assoc, odd int }{
		{100, 16, 1}, // three full pages and a partial one of 4 sets
		{7, 1000, 7}, // one set per page
	} {
		c := newCache(Config{Sets: g.sets, Assoc: g.assoc, LineBytes: 128, SectorBytes: 32})
		for x := 0; x < g.sets; x++ { // line x < Sets maps to set x
			c.Access(uint64(x)*128, 0b0001, true, true)
		}
		pages := c.pages
		c.Release()
		odd := 0
		for p, pg := range pages {
			live := 0
			for i := range pg {
				if pg[i].live {
					live++
				}
			}
			switch {
			case len(pg) == pageLines && live != 0:
				t.Errorf("%d×%d: full page %d kept %d live lines", g.sets, g.assoc, p, live)
			case len(pg) != pageLines:
				odd++
				if live != len(pg)/g.assoc {
					t.Errorf("%d×%d: odd page %d of %d lines holds %d live lines, want %d untouched",
						g.sets, g.assoc, p, len(pg), live, len(pg)/g.assoc)
				}
			}
		}
		if odd != g.odd {
			t.Errorf("%d×%d: %d odd pages, want %d", g.sets, g.assoc, odd, g.odd)
		}
	}
}
