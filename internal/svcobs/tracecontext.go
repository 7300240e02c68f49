package svcobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
)

// TraceContext is the distributed third observability plane's identity:
// one trace ID for a whole campaign (or one front-end request) and the
// span ID of the current operation within it. It travels between
// processes as a W3C-traceparent-style header
//
//	traceparent: 00-<32 hex trace-id>-<16 hex span-id>-01
//
// minted by ladmbench or the front-end, re-parented by the fleet
// dispatcher once per remote attempt, and accepted by the svcobs HTTP
// middleware — so a worker's stage timeline knows exactly which dispatch
// attempt it served. A zero TraceContext means "not traced"; every
// consumer checks Valid() and does nothing without it, keeping the
// distributed plane as opt-in as the other two.
type TraceContext struct {
	// TraceID is the 32-hex campaign/request identity, shared by every
	// span of one distributed story.
	TraceID string
	// SpanID is the 16-hex identity of the current operation — the span
	// that new child operations name as their parent.
	SpanID string
	// Minted marks a context the middleware made up for a request that
	// carried no valid traceparent. No job timeline adopts it (its trace
	// ID lands on the middleware's access-log line), so no trace data is
	// sent back to a caller that never asked for it. Child contexts are
	// not minted.
	Minted bool
}

// TraceparentHeader is the propagation header name (W3C trace context).
const TraceparentHeader = "traceparent"

// TimelineHeader carries a finished worker timeline back to the caller
// as compact JSON (a TimelineSummary) on the synchronous /run response,
// so the fleet dispatcher can stitch the worker's stage spans into the
// campaign trace without a second round trip.
const TimelineHeader = "X-Ladm-Timeline"

// maxTraceparentLen bounds accepted traceparent values: the well-formed
// header is exactly 55 bytes; anything longer is hostile or wrong and
// falls back to minting, the same policy as X-Request-ID.
const maxTraceparentLen = 128

// randHex returns n random bytes as 2n hex characters, with the same
// never-fail posture as NewRequestID: observability must not error.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return strings.Repeat("0", 2*n)
	}
	return hex.EncodeToString(b)
}

// NewTraceID mints a fresh 32-hex trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints a fresh 16-hex span ID.
func NewSpanID() string { return randHex(8) }

// NewTraceContext mints a fresh root: new trace, new root span.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
}

// Valid reports whether the context identifies a trace: both IDs
// well-formed hex of the right length and not all-zero (the W3C
// invalid markers).
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID, 32) && isHexID(tc.SpanID, 16)
}

// Child returns a context in the same trace with a fresh span ID —
// the new operation's identity, parented (by the caller's bookkeeping)
// on tc.SpanID.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: NewSpanID()}
}

// Traceparent renders the propagation header value.
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-01", tc.TraceID, tc.SpanID)
}

// isHexID reports whether s is exactly n lowercase-hex chars and not
// all zeros.
func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	nonzero := false
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			nonzero = true
		}
	}
	return nonzero
}

// ParseTraceparent validates a client-supplied traceparent value.
// ok=false — empty, oversized, wrong shape, bad version, non-hex or
// all-zero IDs — means the caller should mint a fresh context; a
// malformed header is never an error, exactly like a malformed
// X-Request-ID. Uppercase hex is rejected (the spec mandates
// lowercase), keeping every downstream comparison byte-wise.
func ParseTraceparent(s string) (TraceContext, bool) {
	if s == "" || len(s) > maxTraceparentLen {
		return TraceContext{}, false
	}
	// version "00": version-format = version "-" trace-id "-" parent-id "-" flags
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return TraceContext{}, false
	}
	version, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if version != "00" || len(flags) != 2 {
		return TraceContext{}, false
	}
	for i := 0; i < 2; i++ {
		c := flags[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return TraceContext{}, false
		}
	}
	tc := TraceContext{TraceID: traceID, SpanID: spanID}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// WithTraceContext returns ctx carrying the trace context.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxTrace, tc)
}

// TraceContextFrom returns the trace context carried by ctx (zero, not
// Valid, if none).
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(ctxTrace).(TraceContext)
	return tc
}
