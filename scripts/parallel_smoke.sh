#!/usr/bin/env bash
# parallel_smoke.sh — byte-identity check of the parallel event core.
# Runs the same workloads through ladmsim sequentially and with
# -parallel 4 (generation sharded across NUMA-node goroutines) and
# asserts the full JSON measurement records are identical byte for
# byte. Any divergence — a reordered event, a perturbed counter, a
# float off in the last ulp — fails the diff.
set -euo pipefail

. scripts/lib.sh
TMP="$WORK"
build_bins ladmsim

check() {
  local workload="$1" policy="$2" scale="$3" extra="${4:-}"
  local tag="${workload}_${policy}${extra:+_steal}"
  # shellcheck disable=SC2086
  "$BIN/ladmsim" -workload "$workload" -policy "$policy" -scale "$scale" $extra \
    -json > "$TMP/$tag.seq.json"
  # shellcheck disable=SC2086
  "$BIN/ladmsim" -workload "$workload" -policy "$policy" -scale "$scale" $extra \
    -parallel 4 -json > "$TMP/$tag.par.json"
  if ! diff -q "$TMP/$tag.seq.json" "$TMP/$tag.par.json" > /dev/null; then
    echo "parallel_smoke: $tag diverged between sequential and -parallel 4" >&2
    diff "$TMP/$tag.seq.json" "$TMP/$tag.par.json" >&2 || true
    exit 1
  fi
  echo "parallel_smoke: $tag byte-identical"
}

# Regular, irregular (data-dependent trip counts), and stealing.
check vecadd ladm 8
check pagerank ladm 24
check random-loc h-coda 24
check sq-gemm baseline-rr 16
check vecadd ladm 8 -steal

echo "parallel_smoke: all records byte-identical at -parallel 4"
