package page

import "container/list"

// Residency models oversubscribed device memory: each node holds at most
// capacityPages resident pages; touching a non-resident page is a host
// fetch that may evict the node's least-recently-used resident page.
//
// This implements the extension the paper sketches in its related work:
// with the locality table, LASP can *proactively* stage the pages a
// threadblock will touch and evict pages whose threadblocks have finished,
// hiding the host-transfer latency that reactive UVM paging exposes. The
// engine charges the transfer either way; whether the latency lands on the
// critical path is the policy's choice.
type Residency struct {
	capacity int // pages per node; <= 0 disables tracking
	nodes    []residencyNode

	// Fetches counts host->device page transfers.
	Fetches int
	// Evictions counts capacity evictions.
	Evictions int
}

type residencyNode struct {
	order *list.List            // front = most recently used; values are page ids
	where map[int]*list.Element // page -> list element
}

// NewResidency creates a tracker for nodes device memories of the given
// per-node page capacity. capacityPages <= 0 means unlimited (every touch
// is resident).
func NewResidency(nodes, capacityPages int) *Residency {
	r := &Residency{capacity: capacityPages}
	if r.Unlimited() {
		return r // nothing is tracked, so no node needs a list or a map
	}
	r.nodes = make([]residencyNode, nodes)
	for i := range r.nodes {
		r.nodes[i].order = list.New()
		r.nodes[i].where = make(map[int]*list.Element)
	}
	return r
}

// Unlimited reports whether tracking is disabled.
func (r *Residency) Unlimited() bool { return r.capacity <= 0 }

// Touch records an access to page on node and reports whether the page had
// to be fetched from the host (a capacity miss) and whether fetching it
// evicted another page.
func (r *Residency) Touch(node, pg int) (fetched, evicted bool) {
	if r.Unlimited() {
		return false, false
	}
	n := &r.nodes[node]
	if el, ok := n.where[pg]; ok {
		n.order.MoveToFront(el)
		return false, false
	}
	r.Fetches++
	fetched = true
	if n.order.Len() >= r.capacity {
		back := n.order.Back()
		n.order.Remove(back)
		delete(n.where, back.Value.(int))
		r.Evictions++
		evicted = true
	}
	n.where[pg] = n.order.PushFront(pg)
	return fetched, evicted
}

// Resident reports whether a page is currently device resident.
func (r *Residency) Resident(node, pg int) bool {
	if r.Unlimited() {
		return true
	}
	_, ok := r.nodes[node].where[pg]
	return ok
}

// PresentPages returns the resident page count of a node.
func (r *Residency) PresentPages(node int) int {
	if r.Unlimited() {
		return 0
	}
	return r.nodes[node].order.Len()
}
