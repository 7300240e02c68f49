package queueing

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newResource returns a resource serving bytesPerCycle, labelled as
// crossbar 0.
func newResource(bytesPerCycle float64) *Resource {
	r := new(Resource)
	r.Init(Crossbar, 0, 0, bytesPerCycle)
	return r
}

func TestServeSerialization(t *testing.T) {
	r := newResource(10) // 10 B/cycle
	done := r.Serve(0, 100)
	if done != 10 {
		t.Errorf("first transfer done at %f, want 10", done)
	}
	// Arrives while busy: queues behind the first.
	done = r.Serve(5, 50)
	if done != 15 {
		t.Errorf("queued transfer done at %f, want 15", done)
	}
	// Arrives after idle gap: starts immediately.
	done = r.Serve(100, 10)
	if done != 101 {
		t.Errorf("post-gap transfer done at %f, want 101", done)
	}
	if r.BytesServed() != 160 {
		t.Errorf("bytes served = %d, want 160", r.BytesServed())
	}
	if r.Ops() != 3 {
		t.Errorf("ops = %d, want 3", r.Ops())
	}
	if r.BusyCycles() != 16 {
		t.Errorf("busy = %f, want 16", r.BusyCycles())
	}
}

func TestInfiniteRate(t *testing.T) {
	r := newResource(0)
	if done := r.Serve(7, 1<<30); done != 7 {
		t.Errorf("infinite resource delayed transfer to %f", done)
	}
	if r.QueueDelay(0) != 0 {
		t.Error("infinite resource reported queue delay")
	}
}

func TestZeroByteTransfer(t *testing.T) {
	r := newResource(10)
	r.Serve(0, 100) // busy until 10
	if done := r.Serve(5, 0); done != 10 {
		t.Errorf("zero-byte transfer done at %f, want 10 (waits but does not occupy)", done)
	}
	if r.BusyCycles() != 10 {
		t.Errorf("zero-byte transfer changed busy time: %f", r.BusyCycles())
	}
}

func TestQueueDelay(t *testing.T) {
	r := newResource(10)
	r.Serve(0, 100) // busy until 10
	if d := r.QueueDelay(4); d != 6 {
		t.Errorf("QueueDelay(4) = %f, want 6", d)
	}
	if d := r.QueueDelay(20); d != 0 {
		t.Errorf("QueueDelay(20) = %f, want 0", d)
	}
}

func TestUtilizationAndReset(t *testing.T) {
	r := newResource(10)
	r.Serve(0, 100)
	if u := r.Utilization(20); u != 0.5 {
		t.Errorf("utilization = %f, want 0.5", u)
	}
	if u := r.Utilization(5); u != 1 {
		t.Errorf("utilization should clamp to 1, got %f", u)
	}
	if u := r.Utilization(0); u != 0 {
		t.Errorf("zero-horizon utilization = %f", u)
	}
	r.Reset()
	if r.BusyCycles() != 0 || r.BytesServed() != 0 || r.Ops() != 0 {
		t.Error("Reset did not clear stats")
	}
	if done := r.Serve(0, 10); done != 1 {
		t.Errorf("post-reset transfer done at %f, want 1", done)
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); msg != "queueing: negative transfer on hbm.n2.ch5" {
			t.Errorf("negative transfer panicked with %q, want the resource named", msg)
		}
	}()
	var r Resource
	r.Init(DRAMChannel, 2, 5, 1)
	r.Serve(0, -1)
}

// TestNames pins the names resources format from their labels: they
// are the names the machine's resources carried when each was named
// with a formatted string up front.
func TestNames(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		i, j int
		want string
	}{
		{SMIssue, 0, 0, "sm0.issue"},
		{SMIssue, 17, 0, "sm17.issue"},
		{SMIssue, 255, 0, "sm255.issue"},
		{L2Service, 3, 0, "l2srv.n3"},
		{HostLink, 1, 0, "host.g1"},
		{DRAMChannel, 2, 5, "hbm.n2.ch5"},
		{DRAMChannel, 15, 0, "hbm.n15.ch0"},
		{Crossbar, 12, 0, "intra.n12"},
		{Ring, 0, 0, "ring.g0"},
		{Egress, 3, 0, "egress.g3"},
		{Ingress, 2, 0, "ingress.g2"},
		{RingHop, 0, 3, "hop.g0.3"},
		{RingHop, 1, 7, "hop.g1.7"},
	} {
		var r Resource
		r.Init(c.kind, c.i, c.j, 1)
		if got := r.Name(); got != c.want {
			t.Errorf("Init(%d, %d, %d).Name() = %q, want %q", c.kind, c.i, c.j, got, c.want)
		}
	}
}

// Property: completion times are non-decreasing for non-decreasing arrival
// times, and total busy time equals total bytes / rate.
func TestResourceProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		res := newResource(float64(1 + r.Intn(100)))
		now, lastDone := 0.0, 0.0
		var totalBytes uint64
		for i := 0; i < 100; i++ {
			now += float64(r.Intn(10))
			b := r.Intn(1000)
			done := res.Serve(now, b)
			totalBytes += uint64(b)
			if done < lastDone-1e-9 || done < now-1e-9 {
				return false
			}
			lastDone = done
		}
		wantBusy := float64(totalBytes) / res.Rate()
		diff := res.BusyCycles() - wantBusy
		return diff < 1e-6 && diff > -1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestServeDoesNotAllocate pins the hot-path half of the engine's
// zero-allocation contract: booking bandwidth on a resource must never
// allocate, whatever mix of backlogged and idle arrivals it sees.
func TestServeDoesNotAllocate(t *testing.T) {
	res := newResource(32)
	now := 0.0
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			now = res.Serve(now, i%7*16)
			_ = res.QueueDelay(now)
			_ = res.Backlog(now)
		}
	})
	if avg != 0 {
		t.Errorf("Serve/QueueDelay allocate %.1f objects per burst, want 0", avg)
	}
}

func BenchmarkServe(b *testing.B) {
	res := newResource(32)
	b.ReportAllocs()
	now := 0.0
	for i := 0; i < b.N; i++ {
		now = res.Serve(now, 64)
	}
}
