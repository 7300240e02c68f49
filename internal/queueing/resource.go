// Package queueing provides the bandwidth-server primitive shared by the
// DRAM, interconnect, and SM issue models: a resource that serializes byte
// transfers at a fixed rate and reports queueing-delayed completion times.
//
// The model is the standard "next free time" discipline for event-driven
// simulation: a transfer of b bytes arriving at time t on a resource with
// rate R begins at max(t, nextFree) and occupies the resource for b/R
// cycles. This captures both serialization delay and queueing under
// contention, the two first-order effects behind NUMA-GPU bandwidth cliffs.
package queueing

import "fmt"

// Kind is what a resource models. With its one or two indices it makes
// the resource's label, which Name formats only when a message asks for
// it, so building a machine of hundreds of resources formats no string.
type Kind uint8

const (
	SMIssue     Kind = iota + 1 // sm<i>.issue: one SM's LSU issue port
	L2Service                   // l2srv.n<i>: one node's L2 bank bandwidth
	HostLink                    // host.g<i>: one GPU's host link
	DRAMChannel                 // hbm.n<i>.ch<j>: channel j of node i's HBM
	Crossbar                    // intra.n<i>: one node's SM<->L2 crossbar
	Ring                        // ring.g<i>: one GPU's aggregate chiplet ring
	Egress                      // egress.g<i>: one GPU's switch uplink
	Ingress                     // ingress.g<i>: one GPU's switch downlink
	RingHop                     // hop.g<i>.<j>: directional ring link j of GPU i
)

// noCopy makes go vet's copylocks check report a copy of the struct
// holding it, as sync.Mutex does. A copied resource books bandwidth on
// the copy, and nothing the simulator reads sees it.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Resource is a bandwidth-limited server. Machines hold resources by
// value, in slices, and set each one up in place with Init; the zero
// value is an unlabeled, infinitely fast resource. Do not copy a
// Resource: go vet reports a copy.
type Resource struct {
	_    noCopy
	kind Kind
	i, j int32 // the label's indices (j only for two-index kinds)
	// rate is the service rate in bytes per cycle; rate <= 0 means
	// infinite bandwidth (pure latency element).
	rate     float64
	nextFree float64

	busy  float64 // total busy cycles
	bytes uint64  // total bytes served
	ops   uint64  // total transfers
}

// Init sets r up in place as a fresh resource of the given kind and
// indices, serving bytesPerCycle. j is read only by the two-index kinds
// (DRAMChannel, RingHop). A non-positive rate models an infinitely fast
// resource.
func (r *Resource) Init(kind Kind, i, j int, bytesPerCycle float64) {
	*r = Resource{kind: kind, i: int32(i), j: int32(j), rate: bytesPerCycle}
}

// Name formats the resource's name from its label.
func (r *Resource) Name() string {
	switch r.kind {
	case SMIssue:
		return fmt.Sprintf("sm%d.issue", r.i)
	case L2Service:
		return fmt.Sprintf("l2srv.n%d", r.i)
	case HostLink:
		return fmt.Sprintf("host.g%d", r.i)
	case DRAMChannel:
		return fmt.Sprintf("hbm.n%d.ch%d", r.i, r.j)
	case Crossbar:
		return fmt.Sprintf("intra.n%d", r.i)
	case Ring:
		return fmt.Sprintf("ring.g%d", r.i)
	case Egress:
		return fmt.Sprintf("egress.g%d", r.i)
	case Ingress:
		return fmt.Sprintf("ingress.g%d", r.i)
	case RingHop:
		return fmt.Sprintf("hop.g%d.%d", r.i, r.j)
	default:
		return fmt.Sprintf("Kind(%d).%d.%d", r.kind, r.i, r.j)
	}
}

// Rate returns the service rate in bytes per cycle (<= 0: infinite).
func (r *Resource) Rate() float64 { return r.rate }

// Serve schedules a transfer of bytes arriving at now and returns the time
// the last byte has been transferred. Zero-byte transfers complete
// immediately at max(now, nextFree) without occupying the resource.
//
// Serve sits on the engine's per-event hot path (every transaction crosses
// several resources per hop) and must stay allocation-free — the engine's
// steady state allocates nothing per simulated event, and
// TestServeDoesNotAllocate guards this end of the contract.
func (r *Resource) Serve(now float64, bytes int) (done float64) {
	if bytes < 0 {
		panic("queueing: negative transfer on " + r.Name())
	}
	if r.rate <= 0 {
		return now
	}
	start := now
	if r.nextFree > start {
		start = r.nextFree
	}
	dur := float64(bytes) / r.rate
	r.nextFree = start + dur
	r.busy += dur
	r.bytes += uint64(bytes)
	r.ops++
	return r.nextFree
}

// QueueDelay returns how long a transfer arriving at now would wait before
// starting service, without scheduling anything.
func (r *Resource) QueueDelay(now float64) float64 {
	if r.rate <= 0 || r.nextFree <= now {
		return 0
	}
	return r.nextFree - now
}

// Backlog returns the resource's occupancy at now: the cycles of
// already-booked service still ahead of a transfer arriving at now. It
// is the queue-depth signal the telemetry sampler records (identical to
// QueueDelay, named for the gauge it feeds).
func (r *Resource) Backlog(now float64) float64 { return r.QueueDelay(now) }

// BusyCycles returns the total cycles the resource has been serving.
func (r *Resource) BusyCycles() float64 { return r.busy }

// BytesServed returns the total bytes transferred.
func (r *Resource) BytesServed() uint64 { return r.bytes }

// Ops returns the number of transfers served.
func (r *Resource) Ops() uint64 { return r.ops }

// Utilization returns busy-cycles divided by the elapsed horizon.
func (r *Resource) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := r.busy / horizon
	if u > 1 {
		u = 1
	}
	return u
}

// Reset clears schedule and statistics.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.busy = 0
	r.bytes = 0
	r.ops = 0
}
