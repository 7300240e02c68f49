package compiler

import (
	"fmt"
	"sort"
	"strings"

	"ladm/internal/kir"
)

// Entry is one row of the locality table (Figure 5 of the paper): the
// static classification of one access site, keyed by the allocation site
// ("MallocPC") and the kernel/argument tuple. Addr and Pages are the
// dynamic fields the runtime fills in at cudaMallocManaged time.
type Entry struct {
	MallocPC string // allocation-site identity (the array's alloc ID)
	Kernel   string
	Access   int // access index within the kernel
	Mode     kir.AccessMode
	ElemSize int
	Weight   int

	Class          Class
	DatablockBytes uint64

	// Dynamic fields (filled by the runtime).
	Addr  uint64
	Pages int
}

// Table is the locality table embedded in the "executable": all analyzed
// access sites of a workload.
type Table struct {
	Entries []*Entry
}

// AnalyzeKernel classifies every access of one kernel.
func AnalyzeKernel(k *kir.Kernel) []*Entry {
	entries := make([]*Entry, 0, len(k.Accesses))
	for i := range k.Accesses {
		acc := &k.Accesses[i]
		entries = append(entries, &Entry{
			MallocPC:       acc.Array,
			Kernel:         k.Name,
			Access:         i,
			Mode:           acc.Mode,
			ElemSize:       acc.ElemSize,
			Weight:         acc.EffWeight(),
			Class:          ClassifyAccess(k, i),
			DatablockBytes: DatablockBytes(k, i),
		})
	}
	return entries
}

// Analyze builds the locality table for a whole workload. Kernels launched
// multiple times are analyzed once (the classification is launch
// invariant).
func Analyze(w *kir.Workload) *Table {
	t := &Table{}
	seen := make(map[string]bool)
	for _, l := range w.Launches {
		if seen[l.Kernel.Name] {
			continue
		}
		seen[l.Kernel.Name] = true
		t.Entries = append(t.Entries, AnalyzeKernel(l.Kernel)...)
	}
	return t
}

// ForArray returns the entries referring to one allocation site.
func (t *Table) ForArray(array string) []*Entry {
	var out []*Entry
	for _, e := range t.Entries {
		if e.MallocPC == array {
			out = append(out, e)
		}
	}
	return out
}

// ForKernel returns the entries of one kernel.
func (t *Table) ForKernel(kernel string) []*Entry {
	var out []*Entry
	for _, e := range t.Entries {
		if e.Kernel == kernel {
			out = append(out, e)
		}
	}
	return out
}

// Arrays returns the distinct allocation sites in the table, sorted.
func (t *Table) Arrays() []string {
	set := make(map[string]bool)
	for _, e := range t.Entries {
		set[e.MallocPC] = true
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// vote accumulates weighted votes per locality type and returns the
// winner, breaking ties by specificity then by enum order (determinism).
func vote(weights map[LocalityType]uint64) LocalityType {
	best := Unclassified
	var bestW uint64
	for ty := Unclassified; ty <= IntraThread; ty++ {
		w, ok := weights[ty]
		if !ok {
			continue
		}
		if w > bestW ||
			(w == bestW && ty.Specificity() > best.Specificity()) {
			best, bestW = ty, w
		}
	}
	return best
}

// DominantForArray returns the winning classification for one data
// structure when its access sites disagree, along with a representative
// entry of that type (largest weight). Votes are weighted by access
// weight.
func (t *Table) DominantForArray(array string) (LocalityType, *Entry) {
	entries := t.ForArray(array)
	if len(entries) == 0 {
		return Unclassified, nil
	}
	weights := make(map[LocalityType]uint64)
	for _, e := range entries {
		weights[e.Class.Type] += uint64(e.Weight)
	}
	win := vote(weights)
	var rep *Entry
	for _, e := range entries {
		if e.Class.Type != win {
			continue
		}
		if rep == nil || e.Weight > rep.Weight {
			rep = e
		}
	}
	return win, rep
}

// DominantForWorkload returns the workload-level locality label (the
// "Locality Type" column of Table IV): a vote across all access sites
// weighted by access weight times the referenced structure's size, so the
// large, hot structures decide the label.
func (t *Table) DominantForWorkload(w *kir.Workload) LocalityType {
	weights := make(map[LocalityType]uint64)
	for _, e := range t.Entries {
		var bytes uint64 = 1
		if spec := w.Alloc(e.MallocPC); spec != nil {
			bytes = spec.Bytes
		}
		weights[e.Class.Type] += uint64(e.Weight) * bytes
	}
	return vote(weights)
}

// String renders the table in the style of the paper's Figure 5.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-22s %-16s %5s %10s %12s %8s\n",
		"MallocPC", "Kernel/acc", "Locality", "Elem", "Datablock", "Stride", "Pages")
	for _, e := range t.Entries {
		stride := "-"
		if !e.Class.Stride.IsZero() {
			stride = e.Class.Stride.String()
			if len(stride) > 12 {
				stride = stride[:11] + "…"
			}
		}
		fmt.Fprintf(&b, "%-12s %-22s %-16s %4dB %9dB %12s %8d\n",
			e.MallocPC,
			fmt.Sprintf("%s/%d(%s)", e.Kernel, e.Access, e.Mode),
			e.Class.Type,
			e.ElemSize,
			e.DatablockBytes,
			stride,
			e.Pages)
	}
	return b.String()
}
