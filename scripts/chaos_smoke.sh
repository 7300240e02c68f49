#!/usr/bin/env bash
# chaos_smoke.sh — fault-injected fleet campaign check. Starts two
# ladmserve worker instances, runs the same ladmbench experiment twice:
# once pure-local (the reference) and once through `-remote` with
# deterministic transport faults injected, killing worker B as soon as
# it has served a /run while the campaign is still running. The fleet
# run must complete (degrade-to-local is the design), produce
# experiment tables byte-identical to the reference, and show its
# weather in the fleet_* metrics: remote-served cells, retries, a
# nonzero degraded-job count, and B's circuit breaker opening — the
# breaker is the fleet's only mechanism for taking a dead worker out of
# rotation.
set -euo pipefail

ADDR_A="${ADDR_A:-127.0.0.1:18091}"
ADDR_B="${ADDR_B:-127.0.0.1:18092}"
. scripts/lib.sh
OUT="$WORK"
PID_B=""

# Full fig9 at scale 64 takes seconds, long enough to contain the kill.
EXP=fig9
SCALE=64

build_bins ladmserve ladmbench

"$BIN/ladmserve" -addr "$ADDR_A" > "$OUT/worker_a.log" 2>&1 &
"$BIN/ladmserve" -addr "$ADDR_B" > "$OUT/worker_b.log" 2>&1 &
PID_B=$!
wait_ready "$ADDR_A" "$OUT"/*.log
wait_ready "$ADDR_B" "$OUT"/*.log

echo "chaos_smoke: reference run (pure local)"
"$BIN/ladmbench" -experiment "$EXP" -scale "$SCALE" > "$OUT/local.txt"

echo "chaos_smoke: fleet run with fault injection, worker B killed mid-campaign"
"$BIN/ladmbench" -experiment "$EXP" -scale "$SCALE" \
  -remote "$ADDR_A,$ADDR_B" \
  -fault "seed=7,error=0.6,reset=0.1,partial=0.1" \
  -metrics > "$OUT/fleet.txt" 2> "$OUT/fleet.log" &
BENCH_PID=$!

# served_runs prints how many POST /run requests worker B answered 200.
served_runs() {
  curl -sf "http://$ADDR_B/metrics" 2>/dev/null \
    | awk '$1 == "simsvc_http_request_seconds_count{route=\"/run\",code=\"200\"}" {print int($2)}'
}
SERVED=""
for _ in $(seq 1 400); do
  SERVED="$(served_runs || true)"
  if [ -n "$SERVED" ] && [ "$SERVED" -ge 1 ]; then
    break
  fi
  kill -0 "$BENCH_PID" 2>/dev/null || break
  sleep 0.05
done
if [ -z "$SERVED" ] || [ "$SERVED" -lt 1 ]; then
  echo "chaos_smoke: worker B never served a /run before the campaign ended" >&2
  cat "$OUT/fleet.log" >&2
  exit 1
fi
if ! kill -0 "$BENCH_PID" 2>/dev/null; then
  echo "chaos_smoke: ladmbench had already exited when worker B was to be killed; the kill was not mid-campaign" >&2
  exit 1
fi
kill -KILL "$PID_B"
PID_B=""
echo "chaos_smoke: killed worker B after it served $SERVED /run request(s), campaign still running"
if ! wait "$BENCH_PID"; then
  echo "chaos_smoke: fleet campaign failed — degrade-to-local must never fail a campaign" >&2
  cat "$OUT/fleet.log" >&2
  exit 1
fi

# The experiment tables must match the reference byte for byte: strip
# the wall-clock timing lines and cut the run at its metrics section.
tables() { awk '/^# HELP/{exit} !/^\[/' "$1"; }
tables "$OUT/local.txt" > "$OUT/local.tables"
tables "$OUT/fleet.txt" > "$OUT/fleet.tables"
if ! diff -u "$OUT/local.tables" "$OUT/fleet.tables"; then
  echo "chaos_smoke: fleet campaign results diverged from the pure local run" >&2
  exit 1
fi

metric() { awk -v m="$1" '$1 == m {print int($2)}' "$OUT/fleet.txt"; }
REMOTE="$(metric fleet_remote_jobs_total)"
DEGRADED="$(metric fleet_degraded_jobs_total)"
RETRIES="$(metric fleet_retries_total)"
ATTEMPTS="$(metric fleet_attempts_total)"
B_OPENED="$(metric "fleet_breaker_transitions_total{endpoint=\"http://$ADDR_B\",to=\"open\"}")"
echo "chaos_smoke: attempts=$ATTEMPTS retries=$RETRIES remote=$REMOTE degraded=$DEGRADED b_breaker_opened=$B_OPENED"

if [ -z "$DEGRADED" ] || [ "$DEGRADED" -lt 1 ]; then
  echo "chaos_smoke: expected a nonzero fleet_degraded_jobs_total under injected faults" >&2
  exit 1
fi
if [ -z "$REMOTE" ] || [ "$REMOTE" -lt 1 ]; then
  echo "chaos_smoke: no cell was served remotely; the fleet path went untested" >&2
  exit 1
fi
if [ -z "$RETRIES" ] || [ "$RETRIES" -lt 1 ]; then
  echo "chaos_smoke: no retries under a 0.8 cumulative fault rate" >&2
  exit 1
fi
if [ -z "$B_OPENED" ] || [ "$B_OPENED" -lt 1 ]; then
  echo "chaos_smoke: worker B died but its breaker never opened" >&2
  exit 1
fi

echo "chaos_smoke: OK"
