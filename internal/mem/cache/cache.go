// Package cache implements the sectored, set-associative caches of the
// simulated GPU (64 KB L1 per SM, 1 MB L2 slice per chiplet; 128-byte lines
// of four 32-byte sectors, as in GPGPU-Sim/Accel-Sim).
//
// The cache is a functional model with immediate fill: an access probes the
// tag array, fills missing sectors if allocation is requested, and reports
// per-sector hits and misses. Whether to allocate is the caller's decision;
// that hook is exactly where LADM's remote-request bypassing (RONCE vs.
// RTWICE, Section III-E of the paper) plugs in — the engine passes
// allocate=false for remote-origin fills at the home node under RONCE.
package cache

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// SectorMask is a bitmask over the sectors of one line (bit i = sector i).
type SectorMask uint8

// Config fixes the cache geometry.
type Config struct {
	Sets        int
	Assoc       int
	LineBytes   int
	SectorBytes int
}

// SectorsPerLine returns the number of sectors in a line.
func (c Config) SectorsPerLine() int { return c.LineBytes / c.SectorBytes }

// SizeBytes returns the total capacity.
func (c Config) SizeBytes() int { return c.Sets * c.Assoc * c.LineBytes }

type line struct {
	tag   uint64
	valid SectorMask
	dirty SectorMask
	live  bool
	lru   uint64
}

// Stats aggregates functional counters for one cache instance.
type Stats struct {
	Accesses      uint64 // Access calls
	SectorHits    uint64
	SectorMisses  uint64
	LineHits      uint64 // tag present (even if sectors missed)
	LineMisses    uint64
	Evictions     uint64
	WritebackSecs uint64 // dirty sectors written back on eviction
	Bypasses      uint64 // misses that did not allocate
}

// HitRate returns the sector hit rate in [0,1].
func (s Stats) HitRate() float64 {
	total := s.SectorHits + s.SectorMisses
	if total == 0 {
		return 0
	}
	return float64(s.SectorHits) / float64(total)
}

// Result describes the outcome of one access.
type Result struct {
	HitMask  SectorMask // sectors present before the access
	MissMask SectorMask // sectors absent before the access
	// Evicted is true when allocating displaced a live line.
	Evicted bool
	// WritebackSectors counts dirty sectors flushed by the eviction.
	WritebackSectors int
	// VictimAddr is the line address of the evicted line (valid when
	// Evicted is true); callers route its writeback to the right DRAM.
	VictimAddr uint64
	// Bypassed is true when the access missed and did not allocate.
	Bypassed bool
}

// pageBytes is the size a page of sets is cut to: the largest
// power-of-two run of sets whose lines fit in it. 12 KB of 24-byte lines
// is both an L1's whole array (128 sets × 4 ways) and 32 sets of a
// 16-way L2 slice, and 12288 bytes is a Go size class, so a page wastes
// nothing.
const pageBytes = 16 << 10

// Cache is a sectored set-associative cache with LRU replacement.
//
// The lines are allocated by page, a page being a run of consecutive
// sets: the first Access allocates the page table, and each page is
// allocated by the first Access that lands in it. A machine of 256 SMs
// and 16 L2 slices holds about 6 MB of lines (a monolithic 16 MB L2
// alone 3 MB), and a cheap cell touches a few of its caches and a few
// sets of each. Sets on a page not yet allocated are empty. A cache
// whose every set was touched holds exactly Sets×Assoc lines.
type Cache struct {
	cfg      Config
	pages    [][]line // set-major, 1<<pageShift sets each; nil until touched
	tick     uint64
	stats    Stats
	resident int // valid sectors currently held (occupancy gauge)

	lineShift uint // log2(LineBytes)
	setBits   int  // log2(Sets) when Sets is a power of two, else -1
	pageShift uint // log2(sets per page)
	pageMask  int  // sets per page - 1
}

// New creates a cache. It panics on inconsistent geometry: caches are
// constructed from validated arch configs, so a bad geometry is a bug.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Assoc <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	if cfg.LineBytes <= 0 || cfg.SectorBytes <= 0 || cfg.LineBytes%cfg.SectorBytes != 0 {
		panic(fmt.Sprintf("cache: line %d not divisible into %dB sectors", cfg.LineBytes, cfg.SectorBytes))
	}
	if cfg.SectorsPerLine() > 8 {
		panic("cache: SectorMask supports at most 8 sectors per line")
	}
	if bits.OnesCount(uint(cfg.LineBytes)) != 1 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", cfg.LineBytes))
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:   -1,
	}
	if bits.OnesCount(uint(cfg.Sets)) == 1 {
		c.setBits = bits.TrailingZeros(uint(cfg.Sets))
	}
	if perPage := pageBytes / (int(unsafe.Sizeof(line{})) * cfg.Assoc); perPage > 1 {
		c.pageShift = uint(bits.Len(uint(perPage)) - 1)
	}
	c.pageMask = 1<<c.pageShift - 1
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// FullMask returns the mask selecting every sector of a line.
func (c *Cache) FullMask() SectorMask {
	return SectorMask(1<<c.cfg.SectorsPerLine()) - 1
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

// MaskFor returns the sector mask covering [addr, addr+bytes) within addr's
// line. Spans beyond the line end are clamped to the line (callers split
// multi-line accesses).
func (c *Cache) MaskFor(addr uint64, bytes int) SectorMask {
	off := int(addr) & (c.cfg.LineBytes - 1)
	first := off / c.cfg.SectorBytes
	last := (off + bytes - 1) / c.cfg.SectorBytes
	if last >= c.cfg.SectorsPerLine() {
		last = c.cfg.SectorsPerLine() - 1
	}
	var m SectorMask
	for s := first; s <= last; s++ {
		m |= 1 << s
	}
	return m
}

// SetIndex returns the set an address maps to. Higher address bits are
// XOR-folded into the index (as real GPU caches do) so power-of-two
// strides — column walks, SoA planes — spread over sets instead of
// camping on one.
//
// The fold is x ^= x/n; x ^= x/n²; x mod n over the line number x. With a
// power-of-two set count n = 2^k those are shifts by k and 2k and a mask,
// which give the same index without a division on every access.
func (c *Cache) SetIndex(addr uint64) int {
	x := addr >> c.lineShift
	if k := c.setBits; k >= 0 {
		x ^= x >> k
		x ^= x >> (2 * k)
		return int(x & (uint64(c.cfg.Sets) - 1))
	}
	n := uint64(c.cfg.Sets)
	x ^= x / n
	x ^= x / (n * n)
	return int(x % n)
}

// set returns the ways of set s, or nil while its page is unallocated.
// The page table must exist.
func (c *Cache) set(s int) []line {
	pg := c.pages[s>>c.pageShift]
	if pg == nil {
		return nil
	}
	off := (s & c.pageMask) * c.cfg.Assoc
	return pg[off : off+c.cfg.Assoc]
}

// newPage allocates page p: 1<<pageShift sets, or the sets left over
// when it is the last page.
func (c *Cache) newPage(p int) []line {
	first := p << c.pageShift
	c.pages[p] = make([]line, min(c.pageMask+1, c.cfg.Sets-first)*c.cfg.Assoc)
	return c.pages[p]
}

// Access probes the cache for the sectors in mask of addr's line.
//
// If allocate is true, missing sectors are filled (installing the line and
// evicting the LRU victim if needed). If dirty is true, the accessed
// sectors are marked dirty (a store). With allocate=false a full miss
// leaves the cache untouched (a bypass); a partial hit still updates LRU
// and, if dirty, marks the hitting sectors.
func (c *Cache) Access(addr uint64, mask SectorMask, allocate, dirty bool) Result {
	if mask == 0 {
		panic("cache: empty sector mask")
	}
	if c.pages == nil {
		c.pages = make([][]line, (c.cfg.Sets-1)>>c.pageShift+1)
	}
	c.tick++
	c.stats.Accesses++
	lineAddr := c.LineAddr(addr)
	s := c.SetIndex(lineAddr)
	pg := c.pages[s>>c.pageShift]
	if pg == nil {
		pg = c.newPage(s >> c.pageShift)
	}
	off := (s & c.pageMask) * c.cfg.Assoc
	set := pg[off : off+c.cfg.Assoc]

	// Probe.
	for i := range set {
		ln := &set[i]
		if ln.live && ln.tag == lineAddr {
			hit := mask & ln.valid
			miss := mask &^ ln.valid
			c.stats.LineHits++
			c.stats.SectorHits += uint64(popcount(hit))
			c.stats.SectorMisses += uint64(popcount(miss))
			ln.lru = c.tick
			if allocate {
				c.resident += popcount(miss)
				ln.valid |= mask
			}
			if dirty {
				ln.dirty |= mask & ln.valid
			}
			return Result{HitMask: hit, MissMask: miss}
		}
	}

	// Full line miss.
	c.stats.LineMisses++
	c.stats.SectorMisses += uint64(popcount(mask))
	if !allocate {
		c.stats.Bypasses++
		return Result{MissMask: mask, Bypassed: true}
	}

	// Choose victim: the first dead way if any, else LRU. Only
	// InvalidateAll kills lines, and it kills every line of the set, so
	// taking the first dead way keeps each set's live lines a prefix of
	// its ways. InvalidateAll relies on that prefix to stop at the first
	// dead way of each set (CheckPrefix verifies it).
	victim := &set[0]
	for i := range set {
		ln := &set[i]
		if !ln.live {
			victim = ln
			break
		}
		if ln.lru < victim.lru {
			victim = ln
		}
	}
	res := Result{MissMask: mask}
	if victim.live {
		res.Evicted = true
		res.WritebackSectors = popcount(victim.dirty)
		res.VictimAddr = victim.tag
		c.stats.Evictions++
		c.stats.WritebackSecs += uint64(res.WritebackSectors)
		c.resident -= popcount(victim.valid)
	}
	c.resident += popcount(mask)
	victim.tag = lineAddr
	victim.valid = mask
	victim.live = true
	victim.lru = c.tick
	if dirty {
		victim.dirty = mask
	} else {
		victim.dirty = 0
	}
	return res
}

// Probe reports which of the requested sectors are present without
// modifying any state (no LRU update, no fill).
func (c *Cache) Probe(addr uint64, mask SectorMask) (hit SectorMask) {
	if c.pages == nil {
		return 0
	}
	lineAddr := c.LineAddr(addr)
	set := c.set(c.SetIndex(lineAddr)) // nil on an unallocated page: a miss
	for i := range set {
		ln := &set[i]
		if ln.live && ln.tag == lineAddr {
			return mask & ln.valid
		}
	}
	return 0
}

// InvalidateAll drops every line, returning the number of dirty sectors
// that a write-back cache would flush. It models the L2 coherence
// invalidation at kernel boundaries described in the paper (Section V-A).
//
// It visits only the allocated pages and clears only each set's live
// prefix (see the victim choice in Access): dead ways past it are
// already zero, so a set whose first way is dead costs one load.
func (c *Cache) InvalidateAll() (writebackSectors int) {
	for _, pg := range c.pages {
		for s := 0; s < len(pg); s += c.cfg.Assoc {
			set := pg[s : s+c.cfg.Assoc]
			for i := range set {
				if !set[i].live {
					break
				}
				writebackSectors += popcount(set[i].dirty)
				set[i] = line{}
			}
		}
	}
	c.resident = 0
	c.stats.WritebackSecs += uint64(writebackSectors)
	return writebackSectors
}

// ResidentSectors returns the number of valid sectors currently held —
// an O(1) occupancy gauge maintained across fills, evictions and
// invalidations (the telemetry sampler reads it every interval).
func (c *Cache) ResidentSectors() int { return c.resident }

// LiveLines counts currently valid lines (testing/inspection).
func (c *Cache) LiveLines() int {
	n := 0
	for _, pg := range c.pages {
		for i := range pg {
			if pg[i].live {
				n++
			}
		}
	}
	return n
}

// CheckPrefix reports a set whose live lines are not a prefix of its
// ways, or a dead way that is not zero — the invariant InvalidateAll's
// early stop relies on (testing/inspection).
func (c *Cache) CheckPrefix() error {
	for p, pg := range c.pages {
		for s := 0; s < len(pg); s += c.cfg.Assoc {
			set, idx := pg[s:s+c.cfg.Assoc], p<<c.pageShift+s/c.cfg.Assoc
			dead := false
			for i := range set {
				switch {
				case !set[i].live:
					if set[i] != (line{}) {
						return fmt.Errorf("cache: set %d way %d is dead but not cleared", idx, i)
					}
					dead = true
				case dead:
					return fmt.Errorf("cache: set %d way %d is live after a dead way", idx, i)
				}
			}
		}
	}
	return nil
}

func popcount(m SectorMask) int {
	return bits.OnesCount8(uint8(m))
}
