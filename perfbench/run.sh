#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument passes through to the perfbench binary:
#
#   bash perfbench/run.sh --workload fig9-campaign --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh pin [--workload NAME]
#   bash perfbench/run.sh compare PARENT_DIR CHANGE_DIR
#
# Builds, caches, stores and traces stay inside the checkout: under
# $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
here="$root/perfbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp"

(cd "$here" && go build -o "$out/perfbench" .)

export PERFBENCH_OUT="$out" PERFBENCH_PINS="$here/pins"
exec "$out/perfbench" "$@"
