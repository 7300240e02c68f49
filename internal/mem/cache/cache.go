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

// Cache is a sectored set-associative cache with LRU replacement.
type Cache struct {
	cfg      Config
	lines    []line // sets*assoc, set-major
	tick     uint64
	stats    Stats
	resident int // valid sectors currently held (occupancy gauge)

	lineShift uint // log2(LineBytes)
	setBits   int  // log2(Sets) when Sets is a power of two, else -1
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
		lines:     make([]line, cfg.Sets*cfg.Assoc),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:   -1,
	}
	if bits.OnesCount(uint(cfg.Sets)) == 1 {
		c.setBits = bits.TrailingZeros(uint(cfg.Sets))
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

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

func (c *Cache) set(lineAddr uint64) []line {
	setIdx := c.SetIndex(lineAddr)
	return c.lines[setIdx*c.cfg.Assoc : (setIdx+1)*c.cfg.Assoc]
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
	c.tick++
	c.stats.Accesses++
	lineAddr := c.LineAddr(addr)
	set := c.set(lineAddr)

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

	// Choose victim: an invalid way if any, else LRU.
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
	lineAddr := c.LineAddr(addr)
	set := c.set(lineAddr)
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
func (c *Cache) InvalidateAll() (writebackSectors int) {
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

// ResidentSectors returns the number of valid sectors currently held —
// an O(1) occupancy gauge maintained across fills, evictions and
// invalidations (the telemetry sampler reads it every interval).
func (c *Cache) ResidentSectors() int { return c.resident }

// LiveLines counts currently valid lines (testing/inspection).
func (c *Cache) LiveLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].live {
			n++
		}
	}
	return n
}

func popcount(m SectorMask) int {
	return bits.OnesCount8(uint8(m))
}
