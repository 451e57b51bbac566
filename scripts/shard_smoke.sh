#!/bin/sh
# Resume smoke for aropuf_shard's in-process runs (the tools.shard_resume_e2e
# ctest leg runs it).  Exit 0 on success.
#
#   shard_smoke.sh resume SHARD_BINARY OUT_DIR REFERENCE_MERGED_MANIFEST
#     On the tools.shard_e2e study: a deleted shard re-runs alone and the
#     merge matches the reference; another seed re-runs every shard; an
#     all-valid --resume runs no shard.
set -eu

MODE=${1:?usage: shard_smoke.sh resume SHARD_BINARY OUT_DIR REFERENCE}
SHARD=${2:?missing SHARD_BINARY}
OUT=${3:?missing OUT_DIR}
REFERENCE=${4:?missing REFERENCE_MERGED_MANIFEST}
SCRIPT_DIR=$(dirname "$0")
STUDY="--chips 12 --shards 3 --checkpoints 1,10"

fail() {
  echo "shard_smoke: $*" >&2
  exit 1
}

# count PATTERN FILE: number of lines of FILE matching PATTERN.
count() { grep -c "$1" "$2" || true; }

[ "$MODE" = resume ] || fail "unknown mode $MODE"
rm -rf "$OUT"
mkdir -p "$OUT"

# shellcheck disable=SC2086  # STUDY is intentionally word-split
"$SHARD" $STUDY --out "$OUT" --quiet >/dev/null
rm "$OUT/shard-1.manifest.bin"
# shellcheck disable=SC2086
"$SHARD" $STUDY --out "$OUT" --resume >"$OUT/lost-one.log"
[ "$(count 'valid manifest found, skipping' "$OUT/lost-one.log")" -eq 2 ] ||
  fail "lost-one resume did not skip the two intact shards"
grep -q "shard 1: re-running" "$OUT/lost-one.log" || fail "shard 1 was not re-run"
[ "$(count 'folded (in-process)' "$OUT/lost-one.log")" -eq 1 ] ||
  fail "the resumed run did not run exactly one shard"
grep -q "^shard 1: folded (in-process)" "$OUT/lost-one.log" ||
  fail "the shard that ran was not the missing one"
python3 "$SCRIPT_DIR/validate_manifest.py" --diff-stats \
  "$OUT/merged.manifest.json" "$REFERENCE"

# shellcheck disable=SC2086
"$SHARD" $STUDY --out "$OUT" --seed 7 --resume --check-single --quiet >"$OUT/other-seed.log"
[ "$(count 're-running (study config mismatch)' "$OUT/other-seed.log")" -eq 3 ] ||
  fail "another seed's shards were not all re-run"

# shellcheck disable=SC2086
"$SHARD" $STUDY --out "$OUT" --seed 7 --resume >"$OUT/all-valid.log"
[ "$(count 'valid manifest found, skipping' "$OUT/all-valid.log")" -eq 3 ] ||
  fail "an all-valid resume re-ran shards"
if grep -q "folded (in-process)" "$OUT/all-valid.log"; then
  fail "an all-valid resume ran a shard"
fi
echo "shard_smoke: resume OK ($OUT)"
