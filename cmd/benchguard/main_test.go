package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out, err := parseBench(strings.NewReader(`
goos: linux
BenchmarkFast-8    	     100	   1200000 ns/op	 4096 B/op	     120 allocs/op
BenchmarkNoMem-8   	     100	   9000000 ns/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := out["BenchmarkFast"]
	if !ok || fast.nsPerOp != 1200000 || fast.allocsPerOp != 120 || !fast.hasAllocs {
		t.Fatalf("BenchmarkFast = %+v", fast)
	}
	if m := out["BenchmarkNoMem"]; m.hasAllocs {
		t.Fatalf("BenchmarkNoMem should have no allocs: %+v", m)
	}
}

// TestCheckGates covers both gates: the sharp allocation ceiling and the
// loose wall-time ratio (file default 3x, per-entry override).
func TestCheckGates(t *testing.T) {
	base := baseline{Benchmarks: map[string]entry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150, MaxNsRatio: 10},
	}}
	measure := func(ns float64, allocs int64) measurement {
		return measurement{nsPerOp: ns, allocsPerOp: allocs, hasAllocs: true}
	}

	cases := []struct {
		name     string
		measured map[string]measurement
		failed   int
		contains string
	}{
		{"all within", map[string]measurement{
			"BenchmarkA": measure(2000, 120), "BenchmarkB": measure(9000, 120),
		}, 0, "all 2 pinned benchmarks"},
		{"alloc regression", map[string]measurement{
			"BenchmarkA": measure(1000, 200), "BenchmarkB": measure(1000, 100),
		}, 1, "FAIL"},
		{"time regression past the default 3x", map[string]measurement{
			"BenchmarkA": measure(4000, 100), "BenchmarkB": measure(1000, 100),
		}, 1, "FAIL at 3x"},
		{"override allows 10x for B", map[string]measurement{
			"BenchmarkA": measure(1000, 100), "BenchmarkB": measure(9500, 100),
		}, 0, "gated at 10x"},
		{"override still gates past 10x", map[string]measurement{
			"BenchmarkA": measure(1000, 100), "BenchmarkB": measure(15000, 100),
		}, 1, "FAIL at 10x"},
		{"missing benchmark", map[string]measurement{
			"BenchmarkA": measure(1000, 100),
		}, 1, "not present"},
		{"double regression counts once per benchmark", map[string]measurement{
			"BenchmarkA": measure(9000, 900), "BenchmarkB": measure(1000, 100),
		}, 1, "FAIL"},
	}
	for _, c := range cases {
		var b strings.Builder
		if got := check(base, c.measured, &b); got != c.failed {
			t.Errorf("%s: failed = %d, want %d\n%s", c.name, got, c.failed, b.String())
		}
		if !strings.Contains(b.String(), c.contains) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.contains, b.String())
		}
	}

	// A file-level default overrides the built-in 3x.
	loose := base
	loose.MaxNsRatio = 5
	var b strings.Builder
	if got := check(loose, map[string]measurement{
		"BenchmarkA": measure(4000, 100), "BenchmarkB": measure(1000, 100),
	}, &b); got != 0 {
		t.Errorf("file-level 5x should pass a 4x run:\n%s", b.String())
	}
}

// TestParseBenchMediansAndHost covers -count N output: each benchmark is
// summarized by its median sample, and the GOMAXPROCS suffix and cpu
// header are kept.
func TestParseBenchMediansAndHost(t *testing.T) {
	out, err := parseBench(strings.NewReader(`
cpu: Test CPU @ 1GHz
BenchmarkA-2    1    300 ns/op    10 allocs/op
BenchmarkA-2    1    100 ns/op    12 allocs/op
BenchmarkA-2    1    200 ns/op    11 allocs/op
BenchmarkSolo   1    900 ns/op     5 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	a := out["BenchmarkA"]
	if a.nsPerOp != 200 || a.allocsPerOp != 11 || a.procs != 2 || a.cpu != "Test CPU @ 1GHz" {
		t.Errorf("BenchmarkA = %+v, want median 200 ns/op, 11 allocs/op at GOMAXPROCS 2", a)
	}
	if solo := out["BenchmarkSolo"]; solo.procs != 1 {
		t.Errorf("no suffix means GOMAXPROCS 1, got %d", solo.procs)
	}
}

// TestCheckRefusesOtherGOMAXPROCS: wall times pinned at one GOMAXPROCS
// are not compared against a run at another.
func TestCheckRefusesOtherGOMAXPROCS(t *testing.T) {
	base := baseline{GOMAXPROCS: 2, CPU: "pinned CPU", Benchmarks: map[string]entry{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150},
	}}
	at := func(procs int, cpu string) map[string]measurement {
		return map[string]measurement{"BenchmarkA": {nsPerOp: 1000, allocsPerOp: 100, hasAllocs: true, procs: procs, cpu: cpu}}
	}
	var b strings.Builder
	if got := check(base, at(4, "pinned CPU"), &b); got != 1 || !strings.Contains(b.String(), "-cpu 2") {
		t.Errorf("GOMAXPROCS 4 against a pin at 2: failed = %d\n%s", got, b.String())
	}
	b.Reset()
	if got := check(base, at(2, "other CPU"), &b); got != 0 || !strings.Contains(b.String(), "note") {
		t.Errorf("same GOMAXPROCS on another CPU should pass with a note: failed = %d\n%s", got, b.String())
	}
}

// TestRepinNeverRaisesCeilings: a re-pin lowers a ceiling toward 1.5x
// the new measurement but never lifts it.
func TestRepinNeverRaisesCeilings(t *testing.T) {
	base := baseline{Benchmarks: map[string]entry{
		"BenchmarkUp":   {NsPerOp: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150, MaxNsRatio: 5},
		"BenchmarkDown": {NsPerOp: 1000, AllocsPerOp: 100, MaxAllocsPerOp: 150},
	}}
	measured := map[string]measurement{
		"BenchmarkUp":   {nsPerOp: 800, allocsPerOp: 140, hasAllocs: true, procs: 2, cpu: "c"},
		"BenchmarkDown": {nsPerOp: 800, allocsPerOp: 60, hasAllocs: true, procs: 2, cpu: "c"},
		"BenchmarkNew":  {nsPerOp: 800, allocsPerOp: 10, hasAllocs: true, procs: 2, cpu: "c"},
	}
	if err := repin(&base, measured); err != nil {
		t.Fatal(err)
	}
	if e := base.Benchmarks["BenchmarkUp"]; e.MaxAllocsPerOp != 150 || e.AllocsPerOp != 140 || e.MaxNsRatio != 5 {
		t.Errorf("BenchmarkUp = %+v, want ceiling kept at 150 and ratio 5", e)
	}
	if e := base.Benchmarks["BenchmarkDown"]; e.MaxAllocsPerOp != 90 {
		t.Errorf("BenchmarkDown ceiling = %d, want 90", e.MaxAllocsPerOp)
	}
	if e := base.Benchmarks["BenchmarkNew"]; e.MaxAllocsPerOp != 15 {
		t.Errorf("BenchmarkNew ceiling = %d, want 15", e.MaxAllocsPerOp)
	}
	if base.GOMAXPROCS != 2 || base.CPU != "c" {
		t.Errorf("host = %d %q, want 2 %q", base.GOMAXPROCS, base.CPU, "c")
	}
	mixed := map[string]measurement{
		"BenchmarkA": {hasAllocs: true, procs: 1},
		"BenchmarkB": {hasAllocs: true, procs: 2},
	}
	if err := repin(&baseline{}, mixed); err == nil {
		t.Error("a run mixing GOMAXPROCS values should not pin")
	}
}
