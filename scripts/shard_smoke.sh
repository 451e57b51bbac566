#!/bin/sh
# Failure-path smokes for aropuf_shard's local-worker mode (the tools.shard_*
# ctest legs and the CI orchestration job run them).  Exit 0 on success.
#
#   shard_smoke.sh resume SHARD_BINARY OUT_DIR REFERENCE_MERGED_MANIFEST
#     On the tools.shard_e2e study: a deleted shard re-runs alone and the
#     merge matches the reference; another seed re-runs every shard; an
#     all-valid --resume starts no coordinator and no worker.
#
#   shard_smoke.sh kill-local SHARD_BINARY OUT_DIR
#     SIGKILL the only worker of a --jobs 1 run mid-job: the job must be
#     retried on a replacement worker and --check-single must pass.
set -eu

MODE=${1:?usage: shard_smoke.sh resume|kill-local SHARD_BINARY OUT_DIR [REFERENCE]}
SHARD=${2:?missing SHARD_BINARY}
OUT=${3:?missing OUT_DIR}
SCRIPT_DIR=$(dirname "$0")
STUDY="--chips 12 --shards 3 --jobs 2 --checkpoints 1,10"

fail() {
  echo "shard_smoke: $*" >&2
  exit 1
}

# count PATTERN FILE: number of lines of FILE matching PATTERN.
count() { grep -c "$1" "$2" || true; }

rm -rf "$OUT"
mkdir -p "$OUT"

case "$MODE" in
resume)
  REFERENCE=${4:?missing REFERENCE_MERGED_MANIFEST}
  # shellcheck disable=SC2086  # STUDY is intentionally word-split
  "$SHARD" $STUDY --out "$OUT" --quiet >/dev/null
  rm "$OUT/shard-1.manifest.bin"
  # shellcheck disable=SC2086
  "$SHARD" $STUDY --out "$OUT" --resume --quiet >"$OUT/lost-one.log"
  [ "$(count 'valid manifest found, skipping' "$OUT/lost-one.log")" -eq 2 ] ||
    fail "lost-one resume did not skip the two intact shards"
  grep -q "shard 1: re-running" "$OUT/lost-one.log" || fail "shard 1 was not re-run"
  grep -q "coordinating 1 shard job(s)" "$OUT/lost-one.log" ||
    fail "the coordinator was not handed exactly the missing shard"
  python3 "$SCRIPT_DIR/validate_manifest.py" --diff-stats \
    "$OUT/merged.manifest.json" "$REFERENCE"

  # shellcheck disable=SC2086
  "$SHARD" $STUDY --out "$OUT" --seed 7 --resume --check-single --quiet >"$OUT/other-seed.log"
  [ "$(count 're-running (study config mismatch)' "$OUT/other-seed.log")" -eq 3 ] ||
    fail "another seed's shards were not all re-run"

  rm -f "$OUT/fleet_trace.json"
  # shellcheck disable=SC2086
  "$SHARD" $STUDY --out "$OUT" --seed 7 --resume >"$OUT/all-valid.log"
  [ "$(count 'valid manifest found, skipping' "$OUT/all-valid.log")" -eq 3 ] ||
    fail "an all-valid resume re-ran shards"
  if grep -q "coordinating\|started local worker" "$OUT/all-valid.log" ||
    [ -e "$OUT/fleet_trace.json" ]; then
    fail "an all-valid resume started a coordinator or a worker"
  fi
  ;;
kill-local)
  "$SHARD" --chips 200 --shards 2 --jobs 1 --checkpoints 1,10 --out "$OUT" \
    --check-single --timeout 600 >"$OUT/run.log" 2>&1 &
  RUN_PID=$!
  # The first heartbeat means the only worker is inside its first job.
  i=0
  until grep -q "^shard [0-9]*: e2\." "$OUT/run.log"; do
    i=$((i + 1))
    [ "$i" -le 600 ] || { kill "$RUN_PID"; fail "no heartbeat within 60 s"; }
    sleep 0.1
  done
  WORKER_PID=$(sed -n 's/^fleet: started local worker local-0 (pid \([0-9]*\))$/\1/p' \
    "$OUT/run.log")
  [ -n "$WORKER_PID" ] || { kill "$RUN_PID"; fail "no local-0 pid in the log"; }
  kill -9 "$WORKER_PID"
  RC=0
  wait "$RUN_PID" || RC=$?
  [ "$RC" -eq 0 ] || { cat "$OUT/run.log" >&2; fail "run exited $RC (want 0)"; }
  grep -q "^fleet: retry shard" "$OUT/run.log" || fail "no retry event after the kill"
  grep -q "started local worker local-1" "$OUT/run.log" || fail "no replacement worker"
  grep -q "check-single: merged statistics are bit-identical" "$OUT/run.log" ||
    fail "--check-single did not pass"
  ;;
*)
  fail "unknown mode $MODE"
  ;;
esac
echo "shard_smoke: $MODE OK ($OUT)"
