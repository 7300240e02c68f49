// Package interconnect models the hierarchical fabric of the massive
// logical GPU (Figure 1 of the paper): a per-chiplet SM↔L2 crossbar, a
// bi-directional ring connecting the chiplets of one GPU, and a switch
// connecting the discrete GPUs. Each level is a bandwidth-limited resource
// plus a fixed hop latency; a transfer occupies every resource along its
// path in order, so saturating any level back-pressures exactly the
// traffic that crosses it — the mechanism behind the paper's bandwidth
// sensitivity results (Figure 4).
package interconnect

import (
	"fmt"

	"ladm/internal/arch"
	"ladm/internal/queueing"
)

// Kind classifies a transfer by the highest hierarchy level it crosses.
type Kind int

const (
	// Local stays within one chiplet (SM to its own L2/DRAM).
	Local Kind = iota
	// InterChiplet crosses chiplets of the same GPU (ring).
	InterChiplet
	// InterGPU crosses discrete GPUs (switch).
	InterGPU
)

func (k Kind) String() string {
	switch k {
	case Local:
		return "local"
	case InterChiplet:
		return "inter-chiplet"
	case InterGPU:
		return "inter-GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Network is the fabric of one simulated machine. Its resources are
// held by value, carved from one slice.
type Network struct {
	cfg *arch.Config

	intra   []queueing.Resource // per node: SM<->L2 crossbar
	ring    []queueing.Resource // per GPU: inter-chiplet ring (aggregate)
	egress  []queueing.Resource // per GPU: switch uplink
	ingress []queueing.Resource // per GPU: switch downlink

	// hop links for the detailed ring: hops[gpu][dir*C+chiplet] is the
	// directional link leaving that chiplet (dir 0 = clockwise).
	hops [][]queueing.Resource

	bytes [3]uint64 // by Kind
}

// New builds the fabric for cfg.
func New(cfg *arch.Config) *Network {
	nodes, gpus, chiplets := cfg.Nodes(), cfg.GPUs, cfg.ChipletsPerGPU
	links := 0 // directional ring links per GPU
	if cfg.PerLinkRing && chiplets > 1 {
		links = 2 * chiplets
	}
	res := make([]queueing.Resource, nodes+gpus*(3+links))
	carve := func(n int) []queueing.Resource {
		s := res[:n]
		res = res[n:]
		return s
	}
	n := &Network{
		cfg:     cfg,
		intra:   carve(nodes),
		ring:    carve(gpus),
		egress:  carve(gpus),
		ingress: carve(gpus),
		hops:    make([][]queueing.Resource, gpus),
	}
	intraRate := cfg.BytesPerCycle(cfg.IntraChipletGBs)
	for node := range n.intra {
		n.intra[node].Init(queueing.Crossbar, node, 0, intraRate)
	}
	ringRate := cfg.BytesPerCycle(cfg.InterChipletGBs)
	linkRate := cfg.BytesPerCycle(cfg.InterGPUGBs)
	for gpu := 0; gpu < gpus; gpu++ {
		n.ring[gpu].Init(queueing.Ring, gpu, 0, ringRate)
		n.egress[gpu].Init(queueing.Egress, gpu, 0, linkRate)
		n.ingress[gpu].Init(queueing.Ingress, gpu, 0, linkRate)
		if links > 0 {
			// 2*C directional links sharing the GPU's aggregate ring
			// bandwidth.
			per := ringRate / float64(links)
			n.hops[gpu] = carve(links)
			for i := range n.hops[gpu] {
				n.hops[gpu][i].Init(queueing.RingHop, gpu, i, per)
			}
		}
	}
	return n
}

// ringHop serves one inter-chiplet transfer on the detailed ring: the
// message takes the shortest direction, occupying every directional hop
// link along the way.
func (n *Network) ringHop(now float64, src, dst, bytes int) float64 {
	cfg := n.cfg
	c := cfg.ChipletsPerGPU
	gpu := cfg.GPUOfNode(src)
	s := src - gpu*c
	d := dst - gpu*c
	cw := (d - s + c) % c  // hops clockwise
	ccw := (s - d + c) % c // hops counter-clockwise
	dir, hops := 0, cw
	if ccw < cw {
		dir, hops = 1, ccw
	}
	t := now
	pos := s
	for i := 0; i < hops; i++ {
		t = n.hops[gpu][dir*c+pos].Serve(t, bytes)
		if dir == 0 {
			pos = (pos + 1) % c
		} else {
			pos = (pos - 1 + c) % c
		}
		t += float64(cfg.InterChipletLat) / float64(maxI(1, hops))
	}
	return t
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Classify returns the hierarchy level a src→dst transfer crosses.
func (n *Network) Classify(src, dst int) Kind {
	switch {
	case src == dst:
		return Local
	case n.cfg.SameGPU(src, dst):
		return InterChiplet
	default:
		return InterGPU
	}
}

// IntraNode serves an SM↔L2 transfer of bytes within node, returning the
// completion time. This is the only fabric a monolithic GPU has.
func (n *Network) IntraNode(now float64, node, bytes int) float64 {
	n.bytes[Local] += uint64(bytes)
	return n.intra[node].Serve(now, bytes)
}

// Transfer moves bytes from node src to node dst starting at now and
// returns the arrival time and the traffic class. Local transfers cross no
// fabric and arrive immediately (the caller models the SM↔L2 leg with
// IntraNode).
func (n *Network) Transfer(now float64, src, dst, bytes int) (arrive float64, kind Kind) {
	kind = n.Classify(src, dst)
	n.bytes[kind] += uint64(bytes)
	switch kind {
	case Local:
		return now, kind
	case InterChiplet:
		g := n.cfg.GPUOfNode(src)
		if n.hops[g] != nil {
			return n.ringHop(now, src, dst, bytes), kind
		}
		done := n.ring[g].Serve(now, bytes)
		return done + float64(n.cfg.InterChipletLat), kind
	default: // InterGPU
		sg, dg := n.cfg.GPUOfNode(src), n.cfg.GPUOfNode(dst)
		t := now
		if n.cfg.ChipletsPerGPU > 1 {
			// Reach the switch port at the GPU's chiplet 0, then leave the
			// destination GPU's port for the destination chiplet.
			if n.hops[sg] != nil {
				if port := sg * n.cfg.ChipletsPerGPU; port != src {
					t = n.ringHop(t, src, port, bytes)
				}
			} else {
				t = n.ring[sg].Serve(t, bytes)
			}
		}
		t = n.egress[sg].Serve(t, bytes)
		t = n.ingress[dg].Serve(t, bytes)
		if n.cfg.ChipletsPerGPU > 1 {
			if n.hops[dg] != nil {
				if port := dg * n.cfg.ChipletsPerGPU; port != dst {
					t = n.ringHop(t, port, dst, bytes)
				}
			} else {
				t = n.ring[dg].Serve(t, bytes)
			}
		}
		return t + float64(n.cfg.InterGPULat), kind
	}
}

// Bytes returns the total bytes moved at the given level.
func (n *Network) Bytes(kind Kind) uint64 { return n.bytes[kind] }

// TotalOffNodeBytes returns bytes that left their source chiplet.
func (n *Network) TotalOffNodeBytes() uint64 {
	return n.bytes[InterChiplet] + n.bytes[InterGPU]
}

// MaxBusy returns the largest busy time across all fabric resources of the
// given level — the runtime lower bound that level imposes.
func (n *Network) MaxBusy(kind Kind) float64 {
	var pools [][]queueing.Resource
	switch kind {
	case Local:
		pools = [][]queueing.Resource{n.intra}
	case InterChiplet:
		pools = [][]queueing.Resource{n.ring}
		pools = append(pools, n.hops...)
	default:
		pools = [][]queueing.Resource{n.egress, n.ingress}
	}
	var m float64
	for _, pool := range pools {
		if b := maxBusy(pool); b > m {
			m = b
		}
	}
	return m
}

// maxBusy returns the largest busy time in pool (0 when it is empty).
func maxBusy(pool []queueing.Resource) float64 {
	var m float64
	for i := range pool {
		if b := pool[i].BusyCycles(); b > m {
			m = b
		}
	}
	return m
}

// IntraBusy returns one node's SM<->L2 crossbar busy cycles.
func (n *Network) IntraBusy(node int) float64 { return n.intra[node].BusyCycles() }

// RingBusy returns the busy cycles of one GPU's busiest inter-chiplet
// resource: the aggregate ring, or the hottest directional hop link on
// per-link machines (each hop link carries its share of the aggregate
// bandwidth, so its busy time is directly comparable).
func (n *Network) RingBusy(gpu int) float64 {
	if n.hops[gpu] != nil {
		return maxBusy(n.hops[gpu])
	}
	return n.ring[gpu].BusyCycles()
}

// EgressBusy returns one GPU's switch-uplink busy cycles.
func (n *Network) EgressBusy(gpu int) float64 { return n.egress[gpu].BusyCycles() }

// IngressBusy returns one GPU's switch-downlink busy cycles.
func (n *Network) IngressBusy(gpu int) float64 { return n.ingress[gpu].BusyCycles() }

// EgressBacklog returns the cycles of queued work on one GPU's uplink.
func (n *Network) EgressBacklog(gpu int, now float64) float64 {
	return n.egress[gpu].Backlog(now)
}

// IngressBacklog returns the cycles of queued work on one GPU's downlink.
func (n *Network) IngressBacklog(gpu int, now float64) float64 {
	return n.ingress[gpu].Backlog(now)
}

// Reset clears all resource schedules and byte counters.
func (n *Network) Reset() {
	pools := append([][]queueing.Resource{n.intra, n.ring, n.egress, n.ingress}, n.hops...)
	for _, pool := range pools {
		for i := range pool {
			pool[i].Reset()
		}
	}
	n.bytes = [3]uint64{}
}
