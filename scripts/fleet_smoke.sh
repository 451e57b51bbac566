#!/bin/sh
# Fleet end-to-end smoke: an aropuf_shard coordinator opened with --listen
# plus two separately started --worker processes, with the merged
# statistics required to be bit-identical to a single-process run
# (--check-single).  With --kill-one, the first worker
# hard-closes its connection on its first job (the --abort-first-job test
# hook), which drives the coordinator's reassignment path deterministically —
# the run must still complete bit-identically.
#
# Usage: fleet_smoke.sh SHARD_BINARY OUT_DIR [--kill-one]
#
# Exit: 0 on success; nonzero (with a message) on any failure.  Used by the
# tools.fleet_* ctest legs and the CI orchestration job.
set -eu

FLEET=${1:?usage: fleet_smoke.sh SHARD_BINARY OUT_DIR [--kill-one]}
OUT=${2:?usage: fleet_smoke.sh SHARD_BINARY OUT_DIR [--kill-one]}
KILL_ONE=${3:-}

rm -rf "$OUT"
mkdir -p "$OUT"
PORT_FILE="$OUT/coordinator.port"

# Profile the whole fleet: every process resolves AROPUF_PROF itself (perf
# counters where the kernel allows, the rusage fallback elsewhere).  Either
# way the workers' METRICS frames carry their StageTimers' prof.* series and
# the resource sampler's proc.* gauges, and the Prometheus exposition must
# export them.
AROPUF_PROF=on
export AROPUF_PROF

# Total timeout bounds a hung run (a dead worker must surface as a reassign
# or a failed job, never as a stuck CI leg).
"$FLEET" --listen 0 --port-file "$PORT_FILE" \
  --shards 3 --chips 12 --checkpoints 1,10 \
  --out "$OUT" --check-single --timeout 600 --run shard_study &
COORD_PID=$!

# Rendezvous: the coordinator writes the kernel-assigned port atomically.
i=0
while [ ! -f "$PORT_FILE" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "fleet_smoke: coordinator never wrote $PORT_FILE" >&2
    kill "$COORD_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
PORT=$(cat "$PORT_FILE")

W1_FLAGS=""
if [ "$KILL_ONE" = "--kill-one" ]; then
  W1_FLAGS="--abort-first-job"
fi
# shellcheck disable=SC2086  # W1_FLAGS is intentionally word-split
"$FLEET" --worker "127.0.0.1:$PORT" --name smoke-w1 $W1_FLAGS &
W1_PID=$!
"$FLEET" --worker "127.0.0.1:$PORT" --name smoke-w2 &
W2_PID=$!

COORD_RC=0
wait "$COORD_PID" || COORD_RC=$?
W1_RC=0
wait "$W1_PID" || W1_RC=$?
W2_RC=0
wait "$W2_PID" || W2_RC=$?

if [ "$COORD_RC" -ne 0 ]; then
  echo "fleet_smoke: coordinator exited $COORD_RC (want 0)" >&2
  exit 1
fi
if [ "$KILL_ONE" = "--kill-one" ]; then
  # WorkerExit::kAborted — the hook must actually have fired.
  if [ "$W1_RC" -ne 3 ]; then
    echo "fleet_smoke: killed worker exited $W1_RC (want 3)" >&2
    exit 1
  fi
else
  if [ "$W1_RC" -ne 0 ]; then
    echo "fleet_smoke: worker 1 exited $W1_RC (want 0)" >&2
    exit 1
  fi
fi
if [ "$W2_RC" -ne 0 ]; then
  echo "fleet_smoke: worker 2 exited $W2_RC (want 0)" >&2
  exit 1
fi
if [ ! -f "$OUT/merged.manifest.json" ]; then
  echo "fleet_smoke: no merged manifest in $OUT" >&2
  exit 1
fi

# Observability artifacts: every run must leave the merged fleet timeline,
# the metrics snapshot, and the Prometheus exposition next to the manifest.
for artifact in fleet_trace.json fleet_metrics.json fleet_metrics.prom; do
  if [ ! -f "$OUT/$artifact" ]; then
    echo "fleet_smoke: missing observability artifact $OUT/$artifact" >&2
    exit 1
  fi
done

# With AROPUF_PROF=on every worker's snapshots carry profiling instruments
# (prof.scopes at minimum, even on the fallback path), so the exposition
# must include the per-worker profile family.
if ! grep -q "aropuf_fleet_worker_profile" "$OUT/fleet_metrics.prom"; then
  echo "fleet_smoke: fleet_metrics.prom has no aropuf_fleet_worker_profile series" >&2
  exit 1
fi

# Deep checks need python3; skip gracefully on hosts without it (the C++
# gtest suites cover the same invariants in-process).
if command -v python3 >/dev/null 2>&1; then
  SCRIPT_DIR=$(dirname "$0")
  # The merged manifest's shards[] rows come from workers that reset their
  # run record per job; each must still record its pool size.
  python3 "$SCRIPT_DIR/validate_manifest.py" --aggregate "$OUT/merged.manifest.json"
  python3 "$SCRIPT_DIR/validate_manifest.py" --trace "$OUT/fleet_trace.json"
  python3 "$SCRIPT_DIR/validate_manifest.py" --fleet-metrics "$OUT/fleet_metrics.json"
  # One trace_id, spans from the coordinator AND both worker processes, and
  # per-worker job counts summing to the shard plan (reassignment included).
  python3 - "$OUT" "$KILL_ONE" <<'PYEOF'
import json, sys
out, kill_one = sys.argv[1], sys.argv[2]
trace = json.load(open(f"{out}/fleet_trace.json"))
metrics = json.load(open(f"{out}/fleet_metrics.json"))
if not trace.get("trace_id"):
    sys.exit(f"{out}/fleet_trace.json: missing trace_id")
if trace["trace_id"] != metrics.get("trace_id"):
    sys.exit("trace_id differs between fleet_trace.json and fleet_metrics.json")
x_pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "X"}
if 1 not in x_pids:
    sys.exit("merged trace has no coordinator (pid 1) spans")
worker_pids = {w["pid"] for w in metrics["workers"]}
missing = worker_pids - x_pids
if missing:
    sys.exit(f"merged trace is missing spans from worker pid(s) {sorted(missing)}"
             " — even a killed worker ships its connect span")
prev = -1.0
for e in trace["traceEvents"]:
    if e.get("ph") != "X":
        continue
    if e["ts"] < prev:
        sys.exit("merged trace timestamps are not monotonic after offset correction")
    prev = e["ts"]
shards = metrics["shards"]
done_sum = sum(w["jobs_done"] for w in metrics["workers"])
if done_sum != shards["done"] or shards["done"] != shards["total"]:
    sys.exit(f"job accounting broken: per-worker sum {done_sum}, "
             f"done {shards['done']}, total {shards['total']}")
if kill_one == "--kill-one":
    if shards["reassigned"] < 1:
        sys.exit("kill-one run recorded no reassignment")
    if len(metrics["workers"]) != 2:
        sys.exit("kill-one run should have seen exactly 2 workers")
print(f"fleet_smoke: observability OK (trace_id {trace['trace_id']}, "
      f"{len(x_pids)} processes, {shards['reassigned']} reassigned)")
PYEOF
fi
echo "fleet_smoke: OK ($OUT)"
