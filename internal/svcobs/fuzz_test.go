package svcobs

import (
	"encoding/json"
	"io"
	"testing"
)

// FuzzTraceparent feeds arbitrary header values to ParseTraceparent, the
// parser of every inbound traceparent. It must never panic, and a value
// it accepts must re-render through Traceparent to one that parses to
// the same context.
func FuzzTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00",
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0AF7651916CD43DD8448EB211C80319C-B7AD6B7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"00--b7ad6b7169203331-01",
		"",
		"-",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, tc)
			}
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("%q: re-rendered %q parses to %+v, %v; want %+v",
				s, tc.Traceparent(), back, ok, tc)
		}
	})
}

// FuzzTimelineHeader feeds arbitrary X-Ladm-Timeline values — a
// worker's reply, untrusted by the dispatcher — through the fleet's
// decode into Tracer.AddTimeline. Whatever decodes must stitch without
// panicking, keep the tracer's ring within its bound, and still render
// as a trace.
func FuzzTimelineHeader(f *testing.F) {
	for _, seed := range []string{
		`{"name":"vecadd/ladm","request_id":"r1","trace_id":"0af7651916cd43dd8448eb211c80319c","span_id":"b7ad6b7169203331","tier":"event","worker":0,"start_us":1000,"end_us":1500,"stages":[{"stage":"queue","start_us":1000,"dur_us":100},{"stage":"compute","start_us":1100,"dur_us":400}]}`,
		`{"name":"x","start_us":0,"end_us":1}`,
		`{"name":"x","start_us":9223372036854775807,"end_us":-9223372036854775808}`,
		`{"name":"x","start_us":-9223372036854775808,"end_us":9223372036854775807,"stages":[{"stage":"s","start_us":-1,"dur_us":9223372036854775807}]}`,
		`{"stages":null}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	const ring = 16
	f.Fuzz(func(t *testing.T, wire string) {
		tr := newTracer(ring)
		// Stitch the same reply repeatedly, so that small inputs also
		// overflow the ring and exercise its trim.
		for i := 0; i < 3; i++ {
			var ts TimelineSummary
			if json.Unmarshal([]byte(wire), &ts) != nil {
				return
			}
			tr.AddTimeline("http://worker", &ts)
			tr.mu.Lock()
			n := len(tr.events)
			tr.mu.Unlock()
			if n > ring {
				t.Fatalf("ring holds %d events, bound %d", n, ring)
			}
		}
		if err := tr.WriteTrace(io.Discard); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
	})
}
