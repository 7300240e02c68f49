#!/usr/bin/env bash
# fleet_trace_smoke.sh — distributed-tracing and cluster-view check.
# Starts two ladmserve workers, runs a ladmbench campaign over them
# under injected transport faults with -campaign-trace, and asserts the
# merged Chrome trace is valid JSON carrying dispatch spans on the
# client track plus attempt spans AND stitched worker stage spans on
# BOTH endpoint tracks (round-robin dispatch and retries spread the
# attempts). Then starts a front-end over the same
# workers and asserts the GET /fleetz JSON aggregates both (reachable,
# with self-reported /statusz numbers).
set -euo pipefail

ADDR_A="${ADDR_A:-127.0.0.1:18093}"
ADDR_B="${ADDR_B:-127.0.0.1:18094}"
ADDR_FE="${ADDR_FE:-127.0.0.1:18095}"
. scripts/lib.sh
OUT="$WORK"

build_bins ladmserve ladmbench

"$BIN/ladmserve" -addr "$ADDR_A" > "$OUT/worker_a.log" 2>&1 &
"$BIN/ladmserve" -addr "$ADDR_B" > "$OUT/worker_b.log" 2>&1 &
wait_ready "$ADDR_A" "$OUT"/*.log
wait_ready "$ADDR_B" "$OUT"/*.log

echo "fleet_trace_smoke: campaign under faults with -campaign-trace"
"$BIN/ladmbench" -experiment fig9 -scale 16 -workloads vecadd,sq-gemm \
  -remote "$ADDR_A,$ADDR_B" \
  -fault "seed=7,latency=0.5:80ms,error=0.2" \
  -campaign-trace "$OUT/campaign.json" > "$OUT/bench.txt" 2> "$OUT/bench.log"

python3 - "$OUT/campaign.json" "$ADDR_A" "$ADDR_B" <<'PY'
import json, sys
path, addr_a, addr_b = sys.argv[1:4]
doc = json.load(open(path))
evs = doc["traceEvents"]
tracks = {e["tid"]: e["args"]["name"] for e in evs
          if e.get("ph") == "M" and e.get("name") == "thread_name"}
by_track = {}
for e in evs:
    if e.get("ph") in ("X", "i"):
        by_track.setdefault(tracks.get(e["tid"], "?"), []).append(e)

def track(addr):
    for name, t in by_track.items():
        if addr in name:
            return name, t
    sys.exit(f"fleet_trace_smoke: no spans on a track for {addr}; tracks: {list(by_track)}")

assert by_track.get("client"), f"no dispatch spans on the client track: {list(by_track)}"
for addr in (addr_a, addr_b):
    name, t = track(addr)
    cats = {e.get("cat") for e in t}
    names = {e.get("name") for e in t}
    assert "fleet" in cats, f"{name}: no attempt spans (cats {cats})"
    assert "worker" in cats, f"{name}: no stitched worker timeline (cats {cats})"
    assert any(n and "/" in n for n in names), f"{name}: no worker stage spans ({names})"
# Every dispatch span belongs to one campaign trace.
roots = {e["args"]["trace_id"] for e in by_track["client"] if "trace_id" in e.get("args", {})}
assert len(roots) == 1, f"dispatch spans span {len(roots)} trace ids"
print(f"fleet_trace_smoke: trace OK — {sum(len(t) for t in by_track.values())} events "
      f"on {len(by_track)} tracks, campaign trace {next(iter(roots))}")
PY

echo "fleet_trace_smoke: front-end /fleetz over both workers"
"$BIN/ladmserve" -addr "$ADDR_FE" -remote "$ADDR_A,$ADDR_B" > "$OUT/fe.log" 2>&1 &
wait_ready "$ADDR_FE" "$OUT"/*.log
curl -sf "http://$ADDR_FE/fleetz" > "$OUT/fleetz.json"

python3 - "$OUT/fleetz.json" <<'PY'
import json, sys
fz = json.load(open(sys.argv[1]))
s = fz["summary"]
assert s["workers"] == 2, f"fleetz sees {s['workers']} workers, want 2"
assert s["reachable"] == 2, f"only {s['reachable']}/2 workers reachable: {fz['workers']}"
assert s["submitted"] >= 1, "workers served a campaign but report no submitted jobs"
for w in fz["workers"]:
    assert w.get("statusz"), f"worker {w['url']} has no self-report: {w.get('error')}"
print(f"fleet_trace_smoke: fleetz OK — {s['reachable']} reachable, "
      f"{s['submitted']} jobs submitted cluster-wide")
PY

echo "fleet_trace_smoke: OK"
