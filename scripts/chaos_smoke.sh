#!/usr/bin/env bash
# chaos_smoke.sh — fault-injected fleet campaign check. Starts two
# ladmserve worker instances, runs the same ladmbench experiment twice:
# once pure-local (the reference) and once through `-remote` with
# deterministic transport faults injected while one worker is killed
# mid-campaign. The fleet run must complete (degrade-to-local is the
# design), produce experiment tables byte-identical to the reference,
# and show its weather in the fleet_* metrics: remote-served cells,
# retries, and a nonzero degraded-job count.
set -euo pipefail

ADDR_A="${ADDR_A:-127.0.0.1:18091}"
ADDR_B="${ADDR_B:-127.0.0.1:18092}"
. scripts/lib.sh
OUT="$WORK"
PID_B=""

EXP=fig9
SCALE=16
WORKLOADS=vecadd,sq-gemm

build_bins ladmserve ladmbench

"$BIN/ladmserve" -addr "$ADDR_A" > "$OUT/worker_a.log" 2>&1 &
"$BIN/ladmserve" -addr "$ADDR_B" > "$OUT/worker_b.log" 2>&1 &
PID_B=$!
wait_ready "$ADDR_A" "$OUT"/*.log
wait_ready "$ADDR_B" "$OUT"/*.log

echo "chaos_smoke: reference run (pure local)"
"$BIN/ladmbench" -experiment "$EXP" -scale "$SCALE" -workloads "$WORKLOADS" \
  > "$OUT/local.txt"

echo "chaos_smoke: fleet run with fault injection, one worker killed mid-campaign"
"$BIN/ladmbench" -experiment "$EXP" -scale "$SCALE" -workloads "$WORKLOADS" \
  -remote "$ADDR_A,$ADDR_B" \
  -fault "seed=7,error=0.6,reset=0.1,partial=0.1" \
  -metrics > "$OUT/fleet.txt" 2> "$OUT/fleet.log" &
BENCH_PID=$!
sleep 1
kill -KILL "$PID_B" 2>/dev/null || true
PID_B=""
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
echo "chaos_smoke: attempts=$ATTEMPTS retries=$RETRIES remote=$REMOTE degraded=$DEGRADED"

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

echo "chaos_smoke: OK"
