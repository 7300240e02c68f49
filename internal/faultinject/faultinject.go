// Package faultinject is a deterministic, seed-driven fault plane for
// resilience testing: it injects errors, latency, partial responses and
// connection resets at the HTTP transport seam (Transport wraps any
// http.RoundTripper), plus generic error hooks for non-HTTP seams such
// as simstore's disk I/O.
//
// Determinism is the design center, because the rest of the codebase
// pins byte-identical results: every fault decision is a pure hash of
// (seed, request key, occurrence#), not a draw from shared mutable PRNG
// state. The n-th attempt of a given request always sees the same fault
// under the same seed, no matter how unrelated requests interleave —
// which is what lets the fleet tests script exact retry-then-succeed
// and breaker-opens sequences, and lets a chaos run be replayed.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault identifies one injected failure mode.
type Fault int

const (
	// FaultNone forwards the operation untouched.
	FaultNone Fault = iota
	// FaultError fails the operation before it reaches the wire — the
	// remote never sees it (a refused or unroutable connection).
	FaultError
	// FaultReset forwards the request, then drops the response and
	// reports a reset — the remote DID the work, the caller cannot know.
	// This is the fault that makes idempotency load-bearing.
	FaultReset
	// FaultPartial forwards the request but truncates the response body
	// mid-stream, so decoders see an unexpected EOF.
	FaultPartial
	// FaultLatency delays the operation before forwarding it untouched.
	FaultLatency

	numFaults
)

// String names the fault for counters and logs.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultReset:
		return "reset"
	case FaultPartial:
		return "partial"
	case FaultLatency:
		return "latency"
	}
	return "unknown"
}

// Spec configures an Injector: a seed and a probability per fault mode.
// Rates are cumulative-capped at 1.0 in Spec order (error, reset,
// partial, latency); at most one fault fires per decision.
type Spec struct {
	// Seed drives every decision; the same seed replays the same faults.
	Seed int64
	// Error is the probability of FaultError per operation.
	Error float64
	// Reset is the probability of FaultReset per operation.
	Reset float64
	// Partial is the probability of FaultPartial per operation.
	Partial float64
	// LatencyRate is the probability of FaultLatency per operation, and
	// Latency the injected delay.
	LatencyRate float64
	Latency     time.Duration
}

// Enabled reports whether any fault can fire.
func (s Spec) Enabled() bool {
	return s.Error > 0 || s.Reset > 0 || s.Partial > 0 || s.LatencyRate > 0
}

// String renders the spec in ParseSpec's format.
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.Error > 0 {
		parts = append(parts, fmt.Sprintf("error=%g", s.Error))
	}
	if s.Reset > 0 {
		parts = append(parts, fmt.Sprintf("reset=%g", s.Reset))
	}
	if s.Partial > 0 {
		parts = append(parts, fmt.Sprintf("partial=%g", s.Partial))
	}
	if s.LatencyRate > 0 || s.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%s", s.LatencyRate, s.Latency))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the CLI form of a fault plane:
//
//	seed=7,error=0.3,reset=0.1,partial=0.1,latency=0.2:50ms
//
// Every field is optional; rates are probabilities in [0,1].
func ParseSpec(text string) (Spec, error) {
	var s Spec
	for _, field := range strings.Split(text, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: field %q is not key=value", field)
		}
		rate := func(v string) (float64, error) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails both
				return 0, fmt.Errorf("faultinject: %s wants a rate in [0,1], got %q", key, v)
			}
			return f, nil
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("faultinject: bad seed %q", val)
			}
		case "error":
			if s.Error, err = rate(val); err != nil {
				return Spec{}, err
			}
		case "reset":
			if s.Reset, err = rate(val); err != nil {
				return Spec{}, err
			}
		case "partial":
			if s.Partial, err = rate(val); err != nil {
				return Spec{}, err
			}
		case "latency":
			r, d, ok := strings.Cut(val, ":")
			if !ok {
				return Spec{}, fmt.Errorf("faultinject: latency wants rate:duration, got %q", val)
			}
			if s.LatencyRate, err = rate(r); err != nil {
				return Spec{}, err
			}
			if s.Latency, err = time.ParseDuration(d); err != nil || s.Latency < 0 {
				return Spec{}, fmt.Errorf("faultinject: bad latency duration %q", d)
			}
		default:
			return Spec{}, fmt.Errorf("faultinject: unknown field %q (valid: seed, error, reset, partial, latency)", key)
		}
	}
	return s, nil
}

// Injector decides faults deterministically. Safe for concurrent use.
type Injector struct {
	spec Spec

	mu  sync.Mutex
	occ map[uint64]uint64 // per-key occurrence counters

	counts [numFaults]atomic.Int64
}

// New returns an injector for the spec.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, occ: map[uint64]uint64{}}
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Decide draws the fault for the next occurrence of key. The decision
// is a pure function of (seed, key, occurrence#): the n-th Decide for a
// key returns the same fault under the same seed regardless of how
// other keys interleave, so retries of one request see a reproducible
// fault sequence.
func (in *Injector) Decide(key string) Fault {
	h := fnv.New64a()
	io.WriteString(h, key)
	kh := h.Sum64()
	in.mu.Lock()
	n := in.occ[kh]
	in.occ[kh] = n + 1
	in.mu.Unlock()
	f := in.spec.fault(kh, n)
	in.counts[f].Add(1)
	return f
}

// fault maps (seed, key hash, occurrence) to a fault via a splitmix64
// finalizer — a pure function, the determinism contract.
func (s Spec) fault(keyHash, occurrence uint64) Fault {
	x := uint64(s.Seed) ^ keyHash ^ (occurrence * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53) // uniform [0,1)
	switch cum := s.Error; {
	case u < cum:
		return FaultError
	case u < cum+s.Reset:
		return FaultReset
	case u < cum+s.Reset+s.Partial:
		return FaultPartial
	case u < cum+s.Reset+s.Partial+s.LatencyRate:
		return FaultLatency
	}
	return FaultNone
}

// Counts returns how many times each fault (including "none") has been
// decided, keyed by Fault.String().
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64, int(numFaults))
	for f := Fault(0); f < numFaults; f++ {
		out[f.String()] = in.counts[f].Load()
	}
	return out
}

// Injected returns the total number of non-none faults decided so far.
func (in *Injector) Injected() int64 {
	var total int64
	for f := FaultError; f < numFaults; f++ {
		total += in.counts[f].Load()
	}
	return total
}

// Summary renders the counters as "error=3 latency=2 ..." with stable
// ordering, for log lines and smoke scripts.
func (in *Injector) Summary() string {
	c := in.Counts()
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, " ")
}

// InjectedError is the error every injected failure surfaces as, so
// tests can tell injected faults from real ones.
type InjectedError struct {
	Fault Fault
	Op    string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault (%s)", e.Fault, e.Op)
}

// Timeout reports injected resets/errors as non-timeout transport
// failures (net.Error shape, so HTTP clients classify them sanely).
func (e *InjectedError) Timeout() bool   { return false }
func (e *InjectedError) Temporary() bool { return true }

// partialBytes is how much of a response body FaultPartial lets through
// before failing the stream: enough that decoders commit to parsing,
// never enough to finish a record.
const partialBytes = 64

// Transport injects faults in front of an inner http.RoundTripper. The
// decision key is "<METHOD> <path>\x00<body>", so identical requests
// (the fleet's idempotent job submissions) share one deterministic
// fault sequence across retries and endpoints.
type Transport struct {
	Injector *Injector
	// Inner performs the real round trip (nil: http.DefaultTransport).
	Inner http.RoundTripper
}

func (t *Transport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.Method + " " + req.URL.Path
	if req.GetBody != nil {
		if rd, err := req.GetBody(); err == nil {
			if body, err := io.ReadAll(rd); err == nil {
				key += "\x00" + string(body)
			}
		}
	}
	switch f := t.Injector.Decide(key); f {
	case FaultError:
		return nil, &InjectedError{Fault: f, Op: key}
	case FaultLatency:
		timer := time.NewTimer(t.Injector.spec.Latency)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		return t.inner().RoundTrip(req)
	case FaultReset:
		// The request reaches the server and is fully processed; only
		// the response is lost. Draining the body first guarantees the
		// server-side work really happened before the "reset".
		resp, err := t.inner().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &InjectedError{Fault: f, Op: key}
	case FaultPartial:
		resp, err := t.inner().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatedBody{inner: resp.Body, remain: partialBytes}
		resp.ContentLength = -1
		return resp, nil
	}
	return t.inner().RoundTrip(req)
}

// truncatedBody serves the first remain bytes, then fails the stream.
type truncatedBody struct {
	inner  io.ReadCloser
	remain int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, &InjectedError{Fault: FaultPartial, Op: "read"}
	}
	if len(p) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.inner.Read(p)
	b.remain -= n
	if err == io.EOF {
		// The real body ended inside the budget; no truncation happened.
		return n, err
	}
	if b.remain <= 0 && err == nil {
		err = &InjectedError{Fault: FaultPartial, Op: "read"}
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.inner.Close() }
