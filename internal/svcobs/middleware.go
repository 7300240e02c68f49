package svcobs

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"
)

// statusWriter captures the response status code and body size without
// disturbing streaming: Flush passes through (SSE endpoints depend on
// it) and Unwrap supports http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Middleware is the HTTP edge of the correlation contract:
//
//   - accept the client's X-Request-ID (sanitized) or mint one,
//   - echo it on the response header,
//   - accept the client's traceparent (sanitized), so worker-side
//     timelines become child spans of the caller's dispatch attempt, or
//     mint a fresh trace marked Minted, which no job timeline adopts —
//     a malformed header falls back to minting, never to an error,
//   - seed the request context with the ID, trace context and the
//     observer's logger so every layer below logs correlated lines for
//     free,
//   - capture status and bytes via a wrapped ResponseWriter,
//   - observe simsvc_http_request_seconds{route,code}, and
//   - emit one structured access-log line per request.
//
// route maps a request to its bounded-cardinality route label (never
// the raw path); nil buckets everything as "other".
func Middleware(obs *Observer, route func(*http.Request) string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id, ok := SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if !ok {
			id = NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		tc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader))
		if !ok {
			tc = NewTraceContext()
			tc.Minted = true
		}
		ctx := WithRequestID(r.Context(), id)
		ctx = WithTraceContext(ctx, tc)
		ctx = WithLogger(ctx, obs.Log)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(ctx))
		code := sw.code
		if code == 0 {
			code = http.StatusOK // nothing written: implicit 200
		}
		dur := time.Since(start)
		label := "other"
		if route != nil {
			label = route(r)
		}
		obs.HTTP.Observe(dur.Seconds(), label, strconv.Itoa(code))
		obs.Log.LogAttrs(ctx, slog.LevelInfo, "http request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", label),
			slog.Int("status", code),
			slog.Int64("bytes", sw.bytes),
			slog.Duration("duration", dur),
			slog.String("remote", r.RemoteAddr),
			slog.String("trace_id", tc.TraceID),
		)
	})
}
