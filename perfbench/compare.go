package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// minPairs is how many parent/change pairs a verdict needs, and
// winShare the share of them the change must win to claim a gain.
const (
	minPairs = 10
	winShare = 0.9
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain reads two result sets — files or directories holding the
// benchmark's standard output — and labels every end-to-end metric of
// every workload improved, unchanged, regressed or unresolved.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding directions and bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-spec BENCHMARK.json] PARENT CHANGE")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	parent, err := readResults(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readResults(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := sameMachine(append(append([]*result(nil), parent...), change...)); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\tchange wins\tverdict")
	for _, wl := range workloadsIn(parent, change) {
		ps, cs := byStart(parent, wl), byStart(change, wl)
		for _, m := range spec.EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			v := judge(pv, cv, orderOf(ps, cs), m.Better == "higher", m.Bound)
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				wl, m.Name, p2, p1, p3, c2, c1, c3, 100*(c2/p2-1), v.wins, v.pairs, v.label)
		}
	}
	return tw.Flush()
}

// readResults collects the RESULT records of untraced runs from a file
// or from every file of a directory.
func readResults(path string) ([]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []*result
	for _, f := range files {
		rs, err := readResultFile(f)
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced RESULT records", path)
	}
	return out, nil
}

func readResultFile(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "RESULT ")
		if !ok {
			continue
		}
		r := new(result)
		if err := json.Unmarshal([]byte(line), r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// sameMachine refuses result sets taken at different core counts:
// their timings measure different machines.
func sameMachine(rs []*result) error {
	first := rs[0].Env
	for _, r := range rs[1:] {
		if r.Env.NProc != first.NProc || r.Env.GOMAXPROCS != first.GOMAXPROCS {
			return fmt.Errorf("refusing to compare: results taken at nproc=%d GOMAXPROCS=%d and nproc=%d GOMAXPROCS=%d",
				first.NProc, first.GOMAXPROCS, r.Env.NProc, r.Env.GOMAXPROCS)
		}
	}
	return nil
}

func workloadsIn(sets ...[]*result) []string {
	seen := map[string]bool{}
	var out []string
	for _, set := range sets {
		for _, r := range set {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				out = append(out, r.Workload)
			}
		}
	}
	sort.Strings(out)
	return out
}

func byStart(rs []*result, workload string) []*result {
	var out []*result
	for _, r := range rs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Started < out[j].Started })
	return out
}

func values(rs []*result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// orderOf reports, per pair, whether the parent run started first.
func orderOf(ps, cs []*result) []bool {
	n := min(len(ps), len(cs))
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = ps[i].Started < cs[i].Started
	}
	return out
}

type verdict struct {
	label       string
	pairs, wins int
}

// judge labels one metric. Pair i is the i-th parent run with
// the i-th change run. A gain needs at least minPairs pairs in
// alternating order, the change winning winShare of them (ties count
// for neither), and a median gap wider than the parent's interquartile
// range. A regression is a median worse than the parent's by more than
// the bound; a parent spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func judge(parent, change []float64, parentFirst []bool, higher bool, bound float64) verdict {
	n := min(len(parent), len(change))
	v := verdict{pairs: n}
	better := func(c, p float64) bool {
		if higher {
			return c > p
		}
		return c < p
	}
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	if n < minPairs {
		v.label = fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs)
		return v
	}
	first := 0
	for _, pf := range parentFirst {
		if pf {
			first++
		}
	}
	if d := 2*first - len(parentFirst); d > 1 || d < -1 {
		v.label = "unresolved (pairs not alternating)"
		return v
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	gap := math.Abs(cm - pm)
	switch {
	case float64(v.wins) >= winShare*float64(n) && better(cm, pm) && gap > q3-q1:
		v.label = "improved"
		return v
	case better(pm, cm) && gap > bound*math.Abs(pm):
		v.label = "regressed"
		return v
	}
	if (q3-q1) > bound*math.Abs(pm) && !allBetter(change, parent, better) {
		v.label = "unresolved (parent spread exceeds the bound)"
		return v
	}
	v.label = "unchanged"
	return v
}

func allBetter(change, parent []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}
