#!/usr/bin/env bash
# svcobs_smoke.sh — end-to-end check of the service-plane observability
# layer. Starts ladmserve with JSON logs and a store directory, runs one
# job with a client-chosen X-Request-ID, and asserts:
#   1. the response echoes the X-Request-ID header,
#   2. every structured log line for the job (edge access log, registry,
#      store probe, pool execution, completion) carries that request_id,
#   3. /metrics exposes the stage and HTTP latency histograms plus the
#      labeled tier-escalation counter,
#   4. /statusz answers a well-formed JSON document,
#   5. /debug/servicetrace returns a valid Chrome trace with spans.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18082}"
. scripts/lib.sh
STORE="$WORK/store"
LOG="$WORK/server.log"

RID="smoke-rid-$$"

build_bins ladmserve

"$BIN/ladmserve" -addr "$ADDR" -store-dir "$STORE" -log-json -drain-timeout 10s >> "$LOG" 2>&1 &
PID=$!
wait_ready "$ADDR" "$LOG"

echo "svcobs_smoke: run with X-Request-ID $RID"
HDRS="$(mktemp)"
BODY="$(curl -sf -D "$HDRS" -H "X-Request-ID: $RID" -H 'Content-Type: application/json' \
  -d '{"workload":"lbm","fidelity":"auto"}' "http://$ADDR/run")"
echo "$BODY" | grep -q '"status": "done"' || { echo "svcobs_smoke: job not done: $BODY" >&2; exit 1; }
grep -qi "^x-request-id: $RID" "$HDRS" || {
  echo "svcobs_smoke: response did not echo X-Request-ID" >&2; cat "$HDRS" >&2; exit 1; }
rm -f "$HDRS"

echo "svcobs_smoke: correlated log lines"
for msg in "simsvc: job received" "simsvc: store probe miss" "simsvc: tier escalation" \
           "simsvc: job executing" "simsvc: job simulated" "simsvc: job finished" \
           "http request"; do
  if ! grep -F "\"msg\":\"$msg\"" "$LOG" | grep -q "\"request_id\":\"$RID\""; then
    echo "svcobs_smoke: log line '$msg' missing or uncorrelated" >&2
    cat "$LOG" >&2
    exit 1
  fi
done

echo "svcobs_smoke: metrics families"
METRICS="$(curl -sf "http://$ADDR/metrics")"
for want in \
  "# TYPE simsvc_job_stage_seconds histogram" \
  "# TYPE simsvc_http_request_seconds histogram" \
  "# TYPE simsvc_job_wall_seconds histogram" \
  'simsvc_tier_escalations_total{reason="data-dependent"} 1' \
  'simsvc_job_stage_seconds_bucket{stage="compute"' \
  'simsvc_job_stage_seconds_bucket{stage="queue_wait"' \
  'simsvc_http_request_seconds_bucket{route="/run",code="200"'; do
  if ! grep -qF "$want" <<< "$METRICS"; then
    echo "svcobs_smoke: /metrics missing: $want" >&2
    exit 1
  fi
done

echo "svcobs_smoke: statusz"
STATUSZ="$(curl -sf "http://$ADDR/statusz")"
for key in '"service"' '"uptime_seconds"' '"pool"' '"jobs"' '"cache"' '"store"' \
           '"tier"' '"in_flight"' '"slowest"'; do
  grep -qF "$key" <<< "$STATUSZ" || { echo "svcobs_smoke: statusz missing $key" >&2; exit 1; }
done
grep -qF "\"request_id\": \"$RID\"" <<< "$STATUSZ" || {
  echo "svcobs_smoke: statusz slowest ring lost the request id" >&2; exit 1; }

echo "svcobs_smoke: service trace"
TRACE="$(curl -sf "http://$ADDR/debug/servicetrace")"
grep -qF '"traceEvents"' <<< "$TRACE" || { echo "svcobs_smoke: no traceEvents" >&2; exit 1; }
grep -qF '"ph":"X"' <<< "$TRACE" || { echo "svcobs_smoke: trace has no spans" >&2; exit 1; }

kill "$PID"
wait "$PID" 2>/dev/null || true
echo "svcobs_smoke: OK"
