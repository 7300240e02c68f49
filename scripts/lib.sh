# lib.sh — shared plumbing for the smoke scripts. Source it from the
# repository root, right after `set -euo pipefail`:
#
#   . scripts/lib.sh
#   build_bins ladmserve ladmbench        # -> $BIN/ladmserve, $BIN/ladmbench
#   "$BIN/ladmserve" -addr "$ADDR" > "$WORK/server.log" 2>&1 &
#   wait_ready "$ADDR" "$WORK/server.log"
#
# $WORK is a fresh scratch directory ($BIN lives inside it). On exit,
# every background job still running is killed and $WORK is removed.

SMOKE="$(basename "$0" .sh)"
WORK="$(mktemp -d)"
BIN="$WORK/bin"
mkdir -p "$BIN"

smoke_cleanup() {
  local pids
  pids="$(jobs -p)"
  if [ -n "$pids" ]; then
    # shellcheck disable=SC2086
    kill $pids 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap smoke_cleanup EXIT

# build_bins NAME... builds ./cmd/NAME into $BIN/NAME.
build_bins() {
  local name
  for name in "$@"; do
    go build -o "$BIN/$name" "./cmd/$name"
  done
}

# wait_ready ADDR [LOG...] polls http://ADDR/healthz for up to 10 s. On
# timeout it prints the given log files and exits 1.
wait_ready() {
  local addr="$1"
  shift
  for _ in $(seq 1 100); do
    curl -sf "http://$addr/healthz" > /dev/null && return 0
    sleep 0.1
  done
  echo "$SMOKE: server $addr never became ready" >&2
  if [ $# -gt 0 ]; then
    cat "$@" >&2 || true
  fi
  exit 1
}
