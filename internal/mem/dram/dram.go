// Package dram models the per-chiplet HBM stack: a set of channels, each a
// bandwidth-limited server with an open-row policy. Streaming accesses that
// stay within the open row proceed at full channel bandwidth; row switches
// pay an activate/precharge penalty. This is enough resolution to separate
// the streaming workloads (VecAdd, GEMM) from the random-access ones
// (random_loc, graph analytics) in both latency and effective bandwidth,
// which is where the paper's ITL results come from.
package dram

import "ladm/internal/queueing"

// Config describes one node's HBM.
type Config struct {
	Channels      int     // independent channels per node
	BytesPerCycle float64 // aggregate bandwidth across channels
	RowBytes      uint64  // row-buffer coverage per channel
	AccessLat     int     // CAS-ish latency for a row hit, in cycles
	RowMissLat    int     // extra activate+precharge on a row switch
	ChannelStride uint64  // address interleaving granularity across channels
}

// DefaultConfig returns an HBM model scaled to the given aggregate
// bandwidth.
func DefaultConfig(bytesPerCycle float64) Config {
	return Config{
		Channels:      8,
		BytesPerCycle: bytesPerCycle,
		RowBytes:      2048,
		AccessLat:     160,
		RowMissLat:    80,
		ChannelStride: 256,
	}
}

type channel struct {
	res     queueing.Resource
	openRow uint64
	hasRow  bool
}

// Stats aggregates DRAM counters for one node.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	Bytes     uint64
}

// RowHitRate returns the row-buffer hit rate in [0,1].
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// HBM is one node's DRAM. Stacks are held by value, a machine's worth
// at a time (see NewStacks). Do not copy an HBM: go vet reports a copy.
type HBM struct {
	_        noCopy
	cfg      Config
	channels []channel
	stats    Stats
}

// noCopy makes go vet's copylocks check report a copy of the struct
// holding it, as sync.Mutex does.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewStacks builds one HBM stack per node from cfg, in one slice, with
// every stack's channels carved from one more. It builds them in hs, and
// the channels in the array hs's first stack was carved from, when those
// have the capacity, overwriting every stack and channel it returns, and
// allocates otherwise (hs may be nil): a recycled engine hands in the
// stacks it held for its last cell. The channels of node n are named
// hbm.n<n>.ch<i>. It panics on an inconsistent cfg: stacks are built
// from validated arch configs, so a bad one is a bug.
func NewStacks(hs []HBM, cfg Config, nodes int) []HBM {
	if cfg.Channels < 1 {
		panic("dram: need at least one channel")
	}
	if cfg.ChannelStride == 0 || cfg.RowBytes == 0 {
		panic("dram: zero stride or row size")
	}
	per := cfg.BytesPerCycle / float64(cfg.Channels)
	// Every stack's channels are carved from one array, and the first
	// stack's start it.
	var chans []channel
	if cap(hs) > 0 {
		hs = hs[:1]
		chans = hs[0].channels[:cap(hs[0].channels)]
	}
	if cap(hs) < nodes {
		hs = make([]HBM, nodes)
	}
	if len(chans) < nodes*cfg.Channels {
		chans = make([]channel, nodes*cfg.Channels)
	}
	hs = hs[:nodes]
	for n := range hs {
		hs[n] = HBM{cfg: cfg, channels: chans[n*cfg.Channels : (n+1)*cfg.Channels]}
		for i := range hs[n].channels {
			ch := &hs[n].channels[i]
			*ch = channel{}
			ch.res.Init(queueing.DRAMChannel, n, i, per)
		}
	}
	return hs
}

// Config returns the model parameters.
func (h *HBM) Config() Config { return h.cfg }

// Stats returns a copy of the counters.
func (h *HBM) Stats() Stats { return h.stats }

// ChannelOf returns the channel an address maps to. Higher bits fold into
// the index so power-of-two strides spread across channels, as real
// memory controllers arrange with address hashing.
func (h *HBM) ChannelOf(addr uint64) int {
	x := addr / h.cfg.ChannelStride
	n := uint64(h.cfg.Channels)
	x ^= x / n
	x ^= x / (n * n)
	return int(x % n)
}

// Access services a transfer of bytes at addr starting at now and returns
// the completion time (including access latency, row-switch penalty, and
// channel queueing). isWrite only affects accounting.
func (h *HBM) Access(now float64, addr uint64, bytes int, isWrite bool) (done float64) {
	ch := &h.channels[h.ChannelOf(addr)]
	row := addr / h.cfg.RowBytes

	lat := float64(h.cfg.AccessLat)
	if ch.hasRow && ch.openRow == row {
		h.stats.RowHits++
	} else {
		h.stats.RowMisses++
		lat += float64(h.cfg.RowMissLat)
		ch.openRow = row
		ch.hasRow = true
	}
	if isWrite {
		h.stats.Writes++
	} else {
		h.stats.Reads++
	}
	h.stats.Bytes += uint64(bytes)
	return ch.res.Serve(now, bytes) + lat
}

// BusyCycles sums channel busy time (serialization load on the stack).
func (h *HBM) BusyCycles() float64 {
	var b float64
	for i := range h.channels {
		b += h.channels[i].res.BusyCycles()
	}
	return b
}

// MaxChannelBusy returns the busiest channel's busy cycles — the lower
// bound the DRAM imposes on kernel runtime.
func (h *HBM) MaxChannelBusy() float64 {
	var m float64
	for i := range h.channels {
		if b := h.channels[i].res.BusyCycles(); b > m {
			m = b
		}
	}
	return m
}

// MaxBacklog returns the deepest per-channel backlog at now: the cycles
// of booked-but-unserved work on the most congested channel.
func (h *HBM) MaxBacklog(now float64) float64 {
	var m float64
	for i := range h.channels {
		if b := h.channels[i].res.Backlog(now); b > m {
			m = b
		}
	}
	return m
}

// Reset clears schedule, row state and statistics.
func (h *HBM) Reset() {
	for i := range h.channels {
		h.channels[i].res.Reset()
		h.channels[i].hasRow = false
	}
	h.stats = Stats{}
}
