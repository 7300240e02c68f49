package dram

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testHBM() *HBM {
	cfg := DefaultConfig(128)
	cfg.Channels = 2
	cfg.ChannelStride = 256
	cfg.RowBytes = 1024
	cfg.AccessLat = 100
	cfg.RowMissLat = 50
	return newHBM(cfg)
}

// newHBM returns one stack built from cfg.
func newHBM(cfg Config) *HBM { return &NewStacks(nil, cfg, 1)[0] }

func TestRowHitVsMiss(t *testing.T) {
	h := testHBM()
	// First access: row miss.
	done1 := h.Access(0, 0, 32, false)
	// Second access, same row: row hit, lower latency.
	done2 := h.Access(done1, 64, 32, false)
	lat1 := done1 - 0
	lat2 := done2 - done1
	if lat1 <= lat2 {
		t.Errorf("row miss latency %f should exceed row hit latency %f", lat1, lat2)
	}
	st := h.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("row stats: %+v", st)
	}
	if st.Reads != 2 || st.Writes != 0 || st.Bytes != 64 {
		t.Errorf("counters: %+v", st)
	}
}

func TestChannelInterleaving(t *testing.T) {
	h := testHBM()
	// Addresses 0 and 256 land on different channels: no queueing between
	// them.
	d0 := h.Access(0, 0, 128, false)
	d1 := h.Access(0, 256, 128, false)
	if d0 != d1 {
		t.Errorf("parallel channels should finish together: %f vs %f", d0, d1)
	}
	// Same channel: serialized — all busy time accumulates on one channel,
	// so the max-channel bound doubles versus the split case. Find a
	// colliding address under the hashed mapping.
	h2 := testHBM()
	collide := uint64(0)
	for a := uint64(256); ; a += 256 {
		if h2.ChannelOf(a) == h2.ChannelOf(0) {
			collide = a
			break
		}
	}
	h2.Access(0, 0, 1280, false)
	h2.Access(0, collide, 1280, false)
	if got := h2.MaxChannelBusy(); got != 2*1280/64 {
		t.Errorf("same-channel busy = %f, want %d", got, 2*1280/64)
	}
}

func TestWriteAccounting(t *testing.T) {
	h := testHBM()
	h.Access(0, 0, 32, true)
	if st := h.Stats(); st.Writes != 1 || st.Reads != 0 {
		t.Errorf("write accounting: %+v", st)
	}
}

func TestRowHitRateStreamVsRandom(t *testing.T) {
	stream := testHBM()
	for i := 0; i < 256; i++ {
		// Sequential 32B accesses: almost all row hits (1 KB rows).
		stream.Access(float64(i), uint64(i*32), 32, false)
	}
	r := rand.New(rand.NewSource(1))
	random := testHBM()
	for i := 0; i < 256; i++ {
		random.Access(float64(i), uint64(r.Intn(1<<20))&^31, 32, false)
	}
	if sh, rh := stream.Stats().RowHitRate(), random.Stats().RowHitRate(); sh <= rh {
		t.Errorf("streaming row hit rate %f should beat random %f", sh, rh)
	}
}

func TestBusyTracking(t *testing.T) {
	h := testHBM()
	h.Access(0, 0, 640, false) // 640 bytes at 64 B/cycle per channel = 10 cycles
	if b := h.BusyCycles(); b != 10 {
		t.Errorf("busy = %f, want 10", b)
	}
	if m := h.MaxChannelBusy(); m != 10 {
		t.Errorf("max channel busy = %f, want 10", m)
	}
	h.Reset()
	if h.BusyCycles() != 0 || h.Stats().Reads != 0 {
		t.Error("Reset incomplete")
	}
}

// TestNewStacksReusesSlices pins that stacks built into the slices a
// machine held reuse their stack and channel arrays and keep nothing
// else: counters, open rows and channel schedules are fresh, and a
// machine with more channels than the array holds gets a new one.
func TestNewStacksReusesSlices(t *testing.T) {
	old := NewStacks(nil, DefaultConfig(64), 4)
	for n := range old {
		old[n].Access(0, uint64(n)<<12, 64, true)
	}
	cfg := DefaultConfig(32)
	cfg.Channels = 4
	hs := NewStacks(old, cfg, 3)
	if len(hs) != 3 || &hs[0] != &old[0] || &hs[0].channels[0] != &old[0].channels[0] {
		t.Fatalf("NewStacks into 4 stacks of 8 channels did not reuse the arrays")
	}
	for n := range hs {
		h := &hs[n]
		if h.Config() != cfg || h.Stats() != (Stats{}) || h.BusyCycles() != 0 || len(h.channels) != 4 {
			t.Errorf("reused stack %d is not a fresh one: cfg %+v, stats %+v, busy %g, %d channels",
				n, h.Config(), h.Stats(), h.BusyCycles(), len(h.channels))
		}
		for i := range h.channels {
			ch := &h.channels[i]
			if ch.hasRow || ch.res.Name() != fmt.Sprintf("hbm.n%d.ch%d", n, i) || ch.res.Rate() != 8 {
				t.Errorf("stack %d channel %d: open row %v, name %s, rate %g", n, i, ch.hasRow, ch.res.Name(), ch.res.Rate())
			}
		}
	}
	cfg.Channels = 16
	chans := &hs[0].channels[0]
	if grown := NewStacks(hs, cfg, 3); &grown[0] != &hs[0] || &grown[0].channels[0] == chans {
		t.Errorf("NewStacks for 48 channels in an array of 32 must keep the stacks and replace the channels")
	}
}

func TestBadConfigPanics(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no channels": {Channels: 0, RowBytes: 1024, ChannelStride: 256},
		"zero stride": {Channels: 2, RowBytes: 1024, ChannelStride: 0},
		"zero row":    {Channels: 2, RowBytes: 0, ChannelStride: 256},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewStacks(nil, cfg, 1)
		}()
	}
}

// Property: completion time is never before arrival, and rows are
// conserved (hits+misses == accesses).
func TestDRAMProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := newHBM(DefaultConfig(float64(16 + r.Intn(256))))
		now := 0.0
		n := 200
		for i := 0; i < n; i++ {
			now += float64(r.Intn(5))
			done := h.Access(now, uint64(r.Intn(1<<22)), 32*(1+r.Intn(4)), r.Intn(2) == 0)
			if done < now {
				return false
			}
		}
		st := h.Stats()
		return st.RowHits+st.RowMisses == uint64(n) && st.Reads+st.Writes == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
