#!/usr/bin/env bash
# restart_smoke.sh — kill-and-restart durability check for the simsvc
# result store. Starts ladmserve with a store directory, runs a sweep,
# SIGTERMs the server (exercising the drain path), restarts it on the
# same directory, re-runs the identical sweep, and asserts that every
# cell was served from the cache — i.e. nothing was re-simulated.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18080}"
. scripts/lib.sh
STORE="$WORK/store"
LOG="$WORK/server.log"

SWEEP='{"workloads":["vecadd","sq-gemm"],"policies":["ladm","h-coda"],"scale":8}'
CELLS=4

start_server() {
  "$BIN/ladmserve" -addr "$ADDR" -store-dir "$STORE" -drain-timeout 10s >> "$LOG" 2>&1 &
  PID=$!
  wait_ready "$ADDR" "$LOG"
}

build_bins ladmserve

echo "restart_smoke: first run (cold store)"
start_server
curl -sf -X POST "http://$ADDR/sweep" -d "$SWEEP" > /dev/null

echo "restart_smoke: SIGTERM and drain"
kill -TERM "$PID"
wait "$PID" || true
grep -q "shutdown complete" "$LOG" || {
  echo "restart_smoke: server did not drain cleanly" >&2
  cat "$LOG" >&2
  exit 1
}

echo "restart_smoke: restart on the same store"
start_server
curl -sf -X POST "http://$ADDR/sweep" -d "$SWEEP" > /dev/null

METRICS="$(curl -sf "http://$ADDR/metrics")"
HITS="$(echo "$METRICS" | awk '/^simsvc_cache_hits_total /{print int($2)}')"
STORE_HITS="$(echo "$METRICS" | awk '/^simsvc_store_hits_total /{print int($2)}')"
HEALTHY="$(echo "$METRICS" | awk '/^simsvc_store_healthy /{print int($2)}')"

echo "restart_smoke: cache_hits=$HITS store_hits=$STORE_HITS healthy=$HEALTHY"
if [ "$HITS" -lt "$CELLS" ]; then
  echo "restart_smoke: expected every re-swept cell ($CELLS) cached, got $HITS" >&2
  exit 1
fi
if [ "$STORE_HITS" -lt "$CELLS" ]; then
  echo "restart_smoke: expected $CELLS store hits after restart, got $STORE_HITS" >&2
  exit 1
fi
if [ "$HEALTHY" -ne 1 ]; then
  echo "restart_smoke: store is not healthy" >&2
  exit 1
fi

kill -TERM "$PID"
wait "$PID" || true
echo "restart_smoke: OK"
