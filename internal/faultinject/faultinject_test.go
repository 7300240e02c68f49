package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("seed=7,error=0.3,reset=0.1,partial=0.1,latency=0.2:50ms")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Spec{Seed: 7, Error: 0.3, Reset: 0.1, Partial: 0.1, LatencyRate: 0.2, Latency: 50 * time.Millisecond}
	if s != want {
		t.Fatalf("ParseSpec = %+v, want %+v", s, want)
	}
	if !s.Enabled() {
		t.Fatal("spec with rates should be Enabled")
	}
	if (Spec{Seed: 3}).Enabled() {
		t.Fatal("seed-only spec should not be Enabled")
	}
	// Round-trips through String.
	s2, err := ParseSpec(s.String())
	if err != nil || s2 != s {
		t.Fatalf("round-trip %q -> %+v, %v", s.String(), s2, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"error",             // no =
		"error=2",           // rate out of range
		"error=-0.1",        // negative
		"latency=0.5",       // missing duration
		"latency=0.5:bogus", // bad duration
		"seed=abc",          // bad seed
		"unknown=1",         // unknown key
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error, got nil", bad)
		}
	}
	// Empty and whitespace-only specs are valid no-ops.
	if s, err := ParseSpec(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
}

// TestDecideDeterministic pins the determinism contract: the fault
// sequence per key depends only on (seed, key, occurrence#), never on
// interleaving with other keys.
func TestDecideDeterministic(t *testing.T) {
	spec := Spec{Seed: 42, Error: 0.3, Reset: 0.2, Partial: 0.1, LatencyRate: 0.1}
	const n = 50

	seq := func(in *Injector, key string) []Fault {
		out := make([]Fault, n)
		for i := range out {
			out[i] = in.Decide(key)
		}
		return out
	}

	// Run A: key "x" alone. Run B: "x" interleaved with noise keys.
	a := seq(New(spec), "x")
	inB := New(spec)
	b := make([]Fault, n)
	for i := range b {
		inB.Decide("noise-1")
		b[i] = inB.Decide("x")
		inB.Decide("noise-2")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d: alone=%v interleaved=%v — decisions leaked across keys", i, a[i], b[i])
		}
	}

	// Different seed must (overwhelmingly) give a different sequence.
	c := seq(New(Spec{Seed: 43, Error: 0.3, Reset: 0.2, Partial: 0.1, LatencyRate: 0.1}), "x")
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == n {
		t.Fatal("seed change did not alter the fault sequence")
	}
}

func TestDecideRates(t *testing.T) {
	// With error=1.0, every decision faults.
	in := New(Spec{Seed: 1, Error: 1})
	for i := 0; i < 20; i++ {
		if f := in.Decide("k"); f != FaultError {
			t.Fatalf("decision %d = %v, want FaultError", i, f)
		}
	}
	if in.Injected() != 20 {
		t.Fatalf("Injected = %d, want 20", in.Injected())
	}
	// With no rates, nothing faults.
	in = New(Spec{Seed: 1})
	for i := 0; i < 20; i++ {
		if f := in.Decide("k"); f != FaultNone {
			t.Fatalf("decision %d = %v, want FaultNone", i, f)
		}
	}
	if got := in.Counts()["none"]; got != 20 {
		t.Fatalf("Counts[none] = %d, want 20", got)
	}
	// Roughly calibrated: error=0.5 over many draws lands near half.
	in = New(Spec{Seed: 9, Error: 0.5})
	hits := 0
	for i := 0; i < 2000; i++ {
		if in.Decide("cal") == FaultError {
			hits++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Fatalf("error=0.5 fired %d/2000 times — badly calibrated", hits)
	}
}

func TestTransportError(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	client := &http.Client{Transport: &Transport{Injector: New(Spec{Seed: 1, Error: 1})}}
	_, err := client.Get(srv.URL + "/x")
	if err == nil {
		t.Fatal("want injected error, got nil")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Fault != FaultError {
		t.Fatalf("error %v is not an InjectedError{FaultError}", err)
	}
	if served.Load() != 0 {
		t.Fatal("FaultError must not reach the server")
	}
}

func TestTransportReset(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		io.WriteString(w, "ok")
	}))
	defer srv.Close()

	client := &http.Client{Transport: &Transport{Injector: New(Spec{Seed: 1, Reset: 1})}}
	_, err := client.Get(srv.URL + "/x")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Fault != FaultReset {
		t.Fatalf("error %v is not an InjectedError{FaultReset}", err)
	}
	if served.Load() != 1 {
		t.Fatalf("FaultReset must reach the server (work done, response lost); served=%d", served.Load())
	}
}

func TestTransportPartial(t *testing.T) {
	big := strings.Repeat("x", 4096)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, big)
	}))
	defer srv.Close()

	client := &http.Client{Transport: &Transport{Injector: New(Spec{Seed: 1, Partial: 1})}}
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		t.Fatalf("want truncated-read error, got %d clean bytes", len(body))
	}
	if len(body) == 0 || len(body) >= len(big) {
		t.Fatalf("partial body = %d bytes, want a strict prefix", len(body))
	}
}

func TestTransportPartialShortBody(t *testing.T) {
	// Bodies shorter than the truncation budget pass through intact.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "tiny")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &Transport{Injector: New(Spec{Seed: 1, Partial: 1})}}
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || string(body) != "tiny" {
		t.Fatalf("short body: %q, %v", body, err)
	}
}

func TestTransportLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	client := &http.Client{Transport: &Transport{
		Injector: New(Spec{Seed: 1, LatencyRate: 1, Latency: 30 * time.Millisecond}),
	}}
	start := time.Now()
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	resp.Body.Close()
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("latency fault finished in %v, want >= 30ms", d)
	}
}

func TestSummary(t *testing.T) {
	in := New(Spec{Seed: 1, Error: 1})
	in.Decide("a")
	s := in.Summary()
	if !strings.Contains(s, "error=1") || !strings.Contains(s, "none=0") {
		t.Fatalf("Summary = %q", s)
	}
}
