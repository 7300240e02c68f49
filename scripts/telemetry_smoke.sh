#!/usr/bin/env bash
# telemetry_smoke.sh — end-to-end check of the deep telemetry pipeline.
# Starts ladmserve with a store directory, runs a telemetry job, follows
# its SSE event stream, SIGTERMs the server (flushing the telemetry
# spill), restarts on the same directory, and asserts that the spilled
# trace is served back by content key — byte-identical to the live one,
# counter tracks included. Finally, ladmstore inspect must list the
# spilled envelopes as valid.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18081}"
. scripts/lib.sh
STORE="$WORK/store"
LOG="$WORK/server.log"
TMP="$WORK"

RUN='{"workload":"vecadd","policy":"ladm","scale":16,"telemetry":true}'

start_server() {
  "$BIN/ladmserve" -addr "$ADDR" -store-dir "$STORE" -drain-timeout 10s >> "$LOG" 2>&1 &
  PID=$!
  wait_ready "$ADDR" "$LOG"
}

build_bins ladmserve ladmstore

echo "telemetry_smoke: telemetry run"
start_server
curl -sf -X POST "http://$ADDR/run" -d "$RUN" > "$TMP/job.json"
JOB_ID="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])' < "$TMP/job.json")"
JOB_KEY="$(python3 -c 'import json,sys; print(json.load(sys.stdin)["key"])' < "$TMP/job.json")"

echo "telemetry_smoke: SSE stream of $JOB_ID"
# The job already finished, so the replay history serves the whole
# lifecycle and the stream terminates on its own.
curl -sf --max-time 10 "http://$ADDR/jobs/$JOB_ID/events" > "$TMP/events.txt"
for status in queued running done; do
  grep -q "\"status\":\"$status\"" "$TMP/events.txt" || {
    echo "telemetry_smoke: event stream missing status $status" >&2
    cat "$TMP/events.txt" >&2
    exit 1
  }
done

echo "telemetry_smoke: live trace"
curl -sf "http://$ADDR/jobs/$JOB_ID/telemetry?view=trace" > "$TMP/live_trace.json"
python3 -m json.tool "$TMP/live_trace.json" > /dev/null
grep -q '"ph":"C"' "$TMP/live_trace.json" || {
  echo "telemetry_smoke: live trace has no counter tracks" >&2
  exit 1
}

echo "telemetry_smoke: SIGTERM and drain (flushes the spill)"
kill -TERM "$PID"
wait "$PID" || true
grep -q "shutdown complete" "$LOG" || {
  echo "telemetry_smoke: server did not drain cleanly" >&2
  cat "$LOG" >&2
  exit 1
}

echo "telemetry_smoke: restart; fetch spilled telemetry by content key"
start_server
curl -sf "http://$ADDR/jobs/$JOB_KEY/telemetry?view=trace" > "$TMP/stored_trace.json"
cmp "$TMP/live_trace.json" "$TMP/stored_trace.json" || {
  echo "telemetry_smoke: stored trace differs from the live trace" >&2
  exit 1
}
SOURCE="$(curl -sf "http://$ADDR/jobs/$JOB_KEY/telemetry" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["source"])')"
if [ "$SOURCE" != "store" ]; then
  echo "telemetry_smoke: expected source=store, got $SOURCE" >&2
  exit 1
fi

METRICS="$(curl -sf "http://$ADDR/metrics")"
echo "$METRICS" | grep -q "^simsvc_telemetry_spilled_total" || {
  echo "telemetry_smoke: spill counter missing from /metrics" >&2
  exit 1
}

kill -TERM "$PID"
wait "$PID" || true

echo "telemetry_smoke: ladmstore inspect"
"$BIN/ladmstore" inspect "$STORE" > "$TMP/inspect.txt"
cat "$TMP/inspect.txt"
grep -q "simsvc-telemetry/v1" "$TMP/inspect.txt" || {
  echo "telemetry_smoke: inspect does not list the telemetry record" >&2
  exit 1
}
grep -q "0 quarantined, 0 invalid" "$TMP/inspect.txt" || {
  echo "telemetry_smoke: inspect reports quarantined/invalid records" >&2
  exit 1
}

echo "telemetry_smoke: OK"
