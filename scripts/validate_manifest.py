#!/usr/bin/env python3
"""Schema validator for aropuf run manifests and Chrome-trace files.

Run manifests (telemetry/manifest.hpp, DESIGN.md §8.4) are the
machine-readable provenance record every bench/example can emit
(AROPUF_MANIFEST=path, or ARO_CSV_DIR fallback).  CI runs a scenario with
manifests and tracing enabled and validates both artifacts here, so a
serialization regression fails the build instead of silently producing
files Perfetto or the shard-merge driver cannot read.

Aggregated manifests (telemetry/aggregate.hpp, written by tools/aropuf_shard)
validate here too, and --diff-stats enforces the sharding acceptance bar:
the sections that must be invariant under shard decomposition (config,
results, study) must match byte-for-byte between two aggregate manifests.

Binary shard manifests (telemetry/binfmt.hpp, the ARPB container that moves
sample values out of the JSON document) validate with --binary: the framing
is struct-decoded and cross-checked against the embedded metadata, and the
metadata document itself must pass the run-manifest schema.

A shard ran on its process's thread pool, so a shard manifest (one with the
"shard" descriptor, JSON or --binary) and every shards[] row of an
--aggregate manifest must record threads >= 1 (the pool size is a process
field that survives each job's run-record reset).  Other manifests keep
threads >= 0: a bench that never starts the pool records the default 0.

--diff-stats refuses to compare a kept-raw aggregate against a dropped-raw
one: their statistics can match while their payloads differ by design, so a
silent pass would hide a policy regression.  Pass --ignore-raw-policy for
the deliberate cross-policy comparisons (e.g. CI checking that a streaming
drop-raw run reproduces a kept single-shot run's statistics).

Resource timelines (telemetry/prof.hpp ResourceSampler) validate with
--resource: every JSONL line must carry a monotonic timestamp and
non-negative RSS/CPU readings; a torn final line is tolerated.  The
run-manifest "profile" section (counter mode, fallback reason, peak RSS) is
validated as part of the manifest schema.

Usage:
  validate_manifest.py manifest.json [more.json ...]   # manifest schema
  validate_manifest.py --trace trace.json [...]        # Chrome-trace format
  validate_manifest.py --aggregate merged.json [...]   # aggregate schema
  validate_manifest.py --binary shard.manifest.bin [...]  # ARPB container
  validate_manifest.py --auth-store store.arps [...]   # ARPS enrollment store
  validate_manifest.py --resource resource.jsonl [...] # resource timeline
  validate_manifest.py --diff-stats [--ignore-raw-policy] a.json b.json
                                                       # bit-identity check

Exit code 0 when every file validates, 1 otherwise (one line per problem).
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path

SCHEMA = "aropuf-run-manifest"
SCHEMA_VERSION = 1
AGGREGATE_SCHEMA = "aropuf-aggregate-manifest"
# v1: no raw_series marker, no embedded values.  v2 (AggregateBuilder): adds
# the top-level "raw_series" marker and, when it says "kept", the concatenated
# per-chip values inside every merged sample series.
AGGREGATE_SCHEMA_VERSIONS = (1, 2)

# Key -> predicate over the parsed JSON value.  Every key is required:
# build_manifest() fills defaults for facts no subsystem reported, so an
# absent key always means a serialization bug, not a quiet run.
MANIFEST_KEYS = {
    "schema": lambda v: v == SCHEMA,
    "schema_version": lambda v: v == SCHEMA_VERSION,
    "run": lambda v: isinstance(v, str) and v != "",
    "created_unix_ms": lambda v: isinstance(v, (int, float)) and v > 0,
    "git_sha": lambda v: isinstance(v, str) and v != "",
    "build": lambda v: isinstance(v, dict) and isinstance(v.get("type"), str)
    and isinstance(v.get("simd_compiled"), bool),
    "config": lambda v: isinstance(v, dict),
    "threads": lambda v: isinstance(v, (int, float)) and v >= 0,
    "kernel_backend": lambda v: v in ("batched", "simd", "unknown"),
    "stages": lambda v: isinstance(v, list),
    "metrics": lambda v: isinstance(v, dict) and isinstance(v.get("counters"), dict)
    and isinstance(v.get("gauges"), dict) and isinstance(v.get("histograms"), dict),
    "profile": lambda v: isinstance(v, dict),
}

# Modes a run manifest's profile section may report (telemetry/prof.hpp
# ProfMode); aggregates additionally use "mixed" when shards disagree.
PROFILE_MODES = ("counters", "fallback", "off")
AGGREGATE_PROFILE_MODES = PROFILE_MODES + ("mixed",)

STAGE_KEYS = {
    "name": lambda v: isinstance(v, str) and v != "",
    "wall_ms": lambda v: isinstance(v, (int, float)) and v >= 0,
    "cpu_ms": lambda v: isinstance(v, (int, float)) and v >= 0,
}

# Required on every trace event, metadata ("M") records included — the
# serializer deliberately stamps ts/tid on those too so this stays simple.
TRACE_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def fail(path: Path, message: str) -> str:
    return f"{path}: {message}"


def validate_profile_section(profile, path: Path, *, aggregate: bool) -> list[str]:
    """Validates a manifest's "profile" section (telemetry/prof.hpp).

    Run manifests carry a single mode + fallback_reason; aggregates carry
    the merged mode ("mixed" when shards disagree), the deduplicated
    fallback_reasons list, and a per_shard echo of every input section.
    The counters object is optional in both (absent when perf_event was
    unavailable), but when present every entry must be a non-negative
    number — downstream gates read these fields arithmetically.
    """
    if not isinstance(profile, dict):
        return [fail(path, "profile section is not an object")]
    problems = []
    modes = AGGREGATE_PROFILE_MODES if aggregate else PROFILE_MODES
    if profile.get("mode") not in modes:
        problems.append(fail(path, f"profile mode {profile.get('mode')!r} "
                                   f"not one of {modes}"))
    rss = profile.get("peak_rss_kib")
    if not isinstance(rss, (int, float)) or rss < 0:
        problems.append(fail(path, "profile peak_rss_kib missing or negative"))
    if aggregate:
        reasons = profile.get("fallback_reasons")
        if not isinstance(reasons, list) or not all(
                isinstance(r, str) for r in reasons):
            problems.append(fail(path, "profile fallback_reasons must be a "
                                       "list of strings"))
        if not isinstance(profile.get("per_shard"), dict):
            problems.append(fail(path, "profile per_shard missing"))
    else:
        if not isinstance(profile.get("fallback_reason"), str):
            problems.append(fail(path, "profile fallback_reason must be a string"))
        # A manifest claiming hardware counters ran but giving no reason for
        # a fallback (or vice versa) is internally inconsistent.
        if profile.get("mode") == "fallback" and not profile.get("fallback_reason"):
            problems.append(fail(path, "profile mode is 'fallback' but "
                                       "fallback_reason is empty"))
    counters = profile.get("counters")
    if counters is not None:
        if not isinstance(counters, dict):
            problems.append(fail(path, "profile counters is not an object"))
        else:
            for name, value in counters.items():
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(fail(
                        path, f"profile counter '{name}' is not a "
                              "non-negative number"))
    sampler = profile.get("sampler")
    if sampler is not None and not aggregate:
        if not isinstance(sampler, dict):
            problems.append(fail(path, "profile sampler is not an object"))
        else:
            if not isinstance(sampler.get("interval_ms"), (int, float)) or \
                    sampler["interval_ms"] <= 0:
                problems.append(fail(path, "profile sampler interval_ms invalid"))
            if not isinstance(sampler.get("samples"), (int, float)) or \
                    sampler["samples"] < 0:
                problems.append(fail(path, "profile sampler samples invalid"))
            if sampler.get("ok") is not True:
                problems.append(fail(path, "profile sampler reports a stream "
                                          "failure (ok != true)"))
    return problems


def validate_manifest(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [fail(path, f"unreadable or invalid JSON: {e}")]
    return validate_manifest_doc(doc, path)


def pool_threads_ok(value) -> bool:
    return isinstance(value, (int, float)) and value >= 1


def validate_manifest_doc(doc, path: Path) -> list[str]:
    if not isinstance(doc, dict):
        return [fail(path, "top level must be a JSON object")]
    problems = []
    for key, ok in MANIFEST_KEYS.items():
        if key not in doc:
            problems.append(fail(path, f"missing required key '{key}'"))
        elif not ok(doc[key]):
            problems.append(fail(path, f"key '{key}' has invalid value {doc[key]!r}"))
    if (isinstance(doc.get("shard"), dict) and "threads" in doc
            and not pool_threads_ok(doc["threads"])):
        problems.append(fail(path, f"shard manifest records threads {doc['threads']!r} "
                                   "(its pool has at least 1)"))
    for i, stage in enumerate(doc.get("stages", [])):
        if not isinstance(stage, dict):
            problems.append(fail(path, f"stages[{i}] is not an object"))
            continue
        for key, ok in STAGE_KEYS.items():
            if key not in stage or not ok(stage[key]):
                problems.append(fail(path, f"stages[{i}] key '{key}' missing or invalid"))
        # Hardware-counter deltas are optional per stage (absent when
        # perf_event was unavailable), but must be numeric when present.
        if "counters" in stage:
            if not isinstance(stage["counters"], dict):
                problems.append(fail(path, f"stages[{i}] counters is not an object"))
            else:
                for name, value in stage["counters"].items():
                    if not isinstance(value, (int, float)):
                        problems.append(fail(
                            path, f"stages[{i}] counter '{name}' is not a number"))
    for name, value in doc.get("metrics", {}).get("counters", {}).items():
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(fail(path, f"counter '{name}' is not a non-negative number"))
    if "profile" in doc:
        problems.extend(validate_profile_section(doc["profile"], path, aggregate=False))
    return problems


# Aggregate manifest root keys (telemetry/aggregate.cpp aggregate_shards()).
AGGREGATE_KEYS = {
    "schema": lambda v: v == AGGREGATE_SCHEMA,
    "schema_version": lambda v: v in AGGREGATE_SCHEMA_VERSIONS,
    "run": lambda v: isinstance(v, str) and v != "",
    "created_unix_ms": lambda v: isinstance(v, (int, float)) and v > 0,
    "chips": lambda v: isinstance(v, (int, float)) and v >= 2,
    "shard_count": lambda v: isinstance(v, (int, float)) and v >= 1,
    "config": lambda v: isinstance(v, dict),
    "git_sha": lambda v: isinstance(v, str) and v != "",
    "build": lambda v: isinstance(v, dict),
    "shards": lambda v: isinstance(v, list) and v,
    "stages": lambda v: isinstance(v, list),
    "metrics": lambda v: isinstance(v, dict) and isinstance(v.get("counters"), dict)
    and isinstance(v.get("gauges"), dict) and isinstance(v.get("histograms"), dict),
    "results": lambda v: isinstance(v, dict) and isinstance(v.get("samples"), dict)
    and isinstance(v.get("tallies"), dict),
    "conflicts": lambda v: isinstance(v, list),
    "profile": lambda v: isinstance(v, dict),
}

SHARD_ROW_KEYS = ("index", "chip_lo", "chip_hi", "manifest", "git_sha", "threads",
                  "kernel_backend", "wall_ms")

# Sections of an aggregate manifest that must be byte-identical for any shard
# decomposition of the same study (the PR's bit-identity acceptance bar).
# Shard-count-dependent sections (shards, stages, metrics, timing) are
# deliberately excluded.
INVARIANT_SECTIONS = ("config", "results", "study")


def validate_aggregate(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [fail(path, f"unreadable or invalid JSON: {e}")]
    if not isinstance(doc, dict):
        return [fail(path, "top level must be a JSON object")]
    problems = []
    for key, ok in AGGREGATE_KEYS.items():
        if key not in doc:
            problems.append(fail(path, f"missing required key '{key}'"))
        elif not ok(doc[key]):
            problems.append(fail(path, f"key '{key}' has invalid value"))
    if isinstance(doc.get("profile"), dict):
        problems.extend(validate_profile_section(doc["profile"], path, aggregate=True))

    # Shard rows must carry their coordinates and exactly tile [0, chips).
    ranges = []
    for i, row in enumerate(doc.get("shards", [])):
        if not isinstance(row, dict):
            problems.append(fail(path, f"shards[{i}] is not an object"))
            continue
        for key in SHARD_ROW_KEYS:
            if key not in row:
                problems.append(fail(path, f"shards[{i}] missing '{key}'"))
        if "threads" in row and not pool_threads_ok(row["threads"]):
            problems.append(fail(path, f"shards[{i}] records threads {row['threads']!r} "
                                       "(its pool has at least 1)"))
        if isinstance(row.get("chip_lo"), (int, float)) and isinstance(
                row.get("chip_hi"), (int, float)):
            ranges.append((row["chip_lo"], row["chip_hi"]))
    if ranges and isinstance(doc.get("chips"), (int, float)):
        cursor = 0
        for lo, hi in sorted(ranges):
            if lo != cursor:
                problems.append(fail(path, f"shard chip ranges leave a gap at {cursor}"))
                break
            cursor = hi
        else:
            if cursor != doc["chips"]:
                problems.append(
                    fail(path, f"shard ranges cover [0, {cursor}) but chips = {doc['chips']}"))
    if isinstance(doc.get("shards"), list) and isinstance(doc.get("shard_count"), (int, float)):
        if len(doc["shards"]) != doc["shard_count"]:
            problems.append(fail(path, "shards[] length disagrees with shard_count"))

    # Gauges carry their merge policy and every shard's reading; the resolved
    # value must be one of the per-shard readings (never an average).
    for name, gauge in doc.get("metrics", {}).get("gauges", {}).items():
        if not isinstance(gauge, dict):
            problems.append(fail(path, f"gauge '{name}' is not an object"))
            continue
        if gauge.get("policy") not in ("max", "last"):
            problems.append(fail(path, f"gauge '{name}' has unknown policy"))
        per_shard = gauge.get("per_shard")
        if not isinstance(per_shard, dict) or not per_shard:
            problems.append(fail(path, f"gauge '{name}' missing per_shard readings"))
        elif gauge.get("value") not in per_shard.values():
            problems.append(fail(path, f"gauge '{name}' value is not any shard's reading"))

    # v2 carries the raw-series disposition marker, and the marker must agree
    # with what the sample series actually contain: "kept" means every series
    # embeds its concatenated values (one per counted sample), "dropped" means
    # none do.  A manifest that says one thing and does the other is lying
    # about its own memory footprint.
    raw_series = doc.get("raw_series")
    if doc.get("schema_version") == 2:
        if raw_series not in ("kept", "dropped"):
            problems.append(fail(path, f"raw_series must be 'kept' or 'dropped', got {raw_series!r}"))
    elif "raw_series" in doc:
        problems.append(fail(path, "schema_version 1 must not carry a raw_series marker"))
    if raw_series in ("kept", "dropped"):
        for name, series in doc.get("results", {}).get("samples", {}).items():
            if not isinstance(series, dict):
                continue
            values = series.get("values")
            if raw_series == "kept":
                if not isinstance(values, list):
                    problems.append(
                        fail(path, f"samples '{name}': raw_series is 'kept' but no values array"))
                elif isinstance(series.get("count"), (int, float)) and len(values) != series["count"]:
                    problems.append(
                        fail(path, f"samples '{name}' embeds {len(values)} values, "
                                   f"count is {series['count']}"))
            elif "values" in series:
                problems.append(
                    fail(path, f"samples '{name}': raw_series is 'dropped' but values present"))

    # Results: series offsets were already tiled by the C++ merger, but the
    # summary stats must at least be self-consistent.
    for kind in ("samples", "tallies"):
        for name, series in doc.get("results", {}).get(kind, {}).items():
            if not isinstance(series, dict):
                problems.append(fail(path, f"{kind} '{name}' is not an object"))
                continue
            for key in ("count", "mean", "stddev", "min", "max", "histogram"):
                if key not in series:
                    problems.append(fail(path, f"{kind} '{name}' missing '{key}'"))
            hist = series.get("histogram")
            if isinstance(hist, dict) and isinstance(hist.get("bins"), list):
                binned = sum(b for b in hist["bins"] if isinstance(b, (int, float)))
                if isinstance(series.get("count"), (int, float)) and binned != series["count"]:
                    problems.append(
                        fail(path, f"{kind} '{name}' histogram bins sum to {binned}, "
                                   f"count is {series['count']}"))
    return problems


# ARPB binary shard-manifest container (telemetry/binfmt.hpp).  This is an
# independent Python decode of the same wire layout, so a C++ encoder bug
# that its own decoder happens to tolerate still fails CI.
BINFMT_MAGIC = b"ARPB"
BINFMT_VERSION = 1
BINFMT_MAX_NAME = 256
BINFMT_MAX_HIST_BINS = 1 << 20
SERIES_HEADER_KEYS = ("offset", "total", "hist_lo", "hist_hi", "hist_bins")


def validate_binary(path: Path) -> list[str]:
    try:
        wire = path.read_bytes()
    except OSError as e:
        return [fail(path, f"unreadable: {e}")]

    def truncated(what: str) -> list[str]:
        return [fail(path, f"truncated inside {what}")]

    if len(wire) < 16:
        return truncated("header")
    if wire[:4] != BINFMT_MAGIC:
        return [fail(path, f"bad magic {wire[:4]!r} (expected {BINFMT_MAGIC!r})")]
    version, reserved, meta_len = struct.unpack_from("<HHQ", wire, 4)
    if version != BINFMT_VERSION:
        return [fail(path, f"unsupported format version {version}")]
    if reserved != 0:
        return [fail(path, "reserved header bytes are nonzero")]
    pos = 16
    if len(wire) - pos < meta_len:
        return truncated("metadata document")
    try:
        metadata = json.loads(wire[pos:pos + meta_len])
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        return [fail(path, f"metadata is not valid JSON: {e}")]
    pos += meta_len
    problems = validate_manifest_doc(metadata, path)

    if len(wire) - pos < 4:
        return problems + truncated("series count")
    (series_count,) = struct.unpack_from("<I", wire, pos)
    pos += 4
    series = {}
    for i in range(series_count):
        if len(wire) - pos < 2:
            return problems + truncated(f"series[{i}] name length")
        (name_len,) = struct.unpack_from("<H", wire, pos)
        pos += 2
        if not 1 <= name_len <= BINFMT_MAX_NAME:
            return problems + [fail(path, f"series[{i}] name length {name_len} out of range")]
        if len(wire) - pos < name_len:
            return problems + truncated(f"series[{i}] name")
        name = wire[pos:pos + name_len].decode("utf-8", errors="replace")
        pos += name_len
        if name in series:
            return problems + [fail(path, f"duplicate series '{name}'")]
        if len(wire) - pos < 44:
            return problems + truncated(f"series '{name}' header")
        offset, total, hist_lo, hist_hi, hist_bins, count = struct.unpack_from(
            "<QQddIQ", wire, pos)
        pos += 44
        if not 1 <= hist_bins <= BINFMT_MAX_HIST_BINS:
            problems.append(fail(path, f"series '{name}' hist_bins {hist_bins} out of range"))
        pad = (-pos) % 8
        if wire[pos:pos + pad] != b"\x00" * pad:
            return problems + [fail(path, f"series '{name}' has nonzero alignment padding")]
        pos += pad
        if count > (len(wire) - pos) // 8:
            return problems + [fail(path, f"series '{name}' declares {count} values "
                                          "but they do not fit in the file")]
        if offset > total or count > total - offset:
            problems.append(fail(path, f"series '{name}' slice [{offset}, +{count}) "
                                       f"exceeds its total {total}"))
        series[name] = {"offset": offset, "total": total, "hist_lo": hist_lo,
                        "hist_hi": hist_hi, "hist_bins": hist_bins}
        pos += count * 8
    if pos != len(wire):
        problems.append(fail(path, f"{len(wire) - pos} trailing bytes after the last series"))

    # The metadata's results.samples section and the series blocks must
    # describe the same payload.
    samples = metadata.get("results", {}).get("samples", {}) if isinstance(
        metadata, dict) else {}
    if not isinstance(samples, dict):
        samples = {}
    if set(samples) != set(series):
        problems.append(fail(path, f"metadata sample names {sorted(samples)} disagree "
                                   f"with series blocks {sorted(series)}"))
    for name in set(samples) & set(series):
        header = samples[name]
        if not isinstance(header, dict):
            problems.append(fail(path, f"metadata samples '{name}' is not an object"))
            continue
        if "values" in header:
            problems.append(fail(path, f"metadata samples '{name}' embeds a values array "
                                       "(payload duplicated)"))
        for key in SERIES_HEADER_KEYS:
            if header.get(key) != series[name][key]:
                problems.append(fail(path, f"metadata samples '{name}' key '{key}' "
                                           f"({header.get(key)!r}) disagrees with the series "
                                           f"block ({series[name][key]!r})"))
    return problems


def validate_auth_store(path: Path) -> list[str]:
    """Independent decoder for ARPS enrollment stores (src/auth/store_binary.hpp).

    Re-implements the wire spec from the layout comment rather than calling
    the C++ reader, so an encoder bug the C++ decoder happens to tolerate
    still fails here: header ranges, exact file size, and a strictly
    increasing device index.
    """
    try:
        wire = path.read_bytes()
    except OSError as e:
        return [fail(path, f"unreadable: {e}")]

    if len(wire) < 40:
        return [fail(path, "truncated inside the 40-byte header")]
    if wire[:4] != b"ARPS":
        return [fail(path, f"bad magic {wire[:4]!r} (expected b'ARPS')")]
    version, reserved, device_count, response_bits, helper_bits, tag_bytes, model, \
        fleet_seed = struct.unpack_from("<HHQIIIIQ", wire, 4)
    if version != 1:
        return [fail(path, f"unsupported store version {version}")]
    if reserved != 0:
        return [fail(path, "reserved header bytes are nonzero")]
    problems = []
    if tag_bytes != 32:
        problems.append(fail(path, f"tag_bytes {tag_bytes} (expected 32)"))
    if response_bits == 0 and helper_bits == 0:
        problems.append(fail(path, "store carries neither responses nor helper data"))
    if response_bits > 1 << 20 or helper_bits > 1 << 20:
        problems.append(fail(path, f"unreasonable bit widths R={response_bits} "
                                   f"H={helper_bits}"))
    stride = (response_bits + 7) // 8 + (helper_bits + 7) // 8 + tag_bytes
    expected = 40 + device_count * (8 + stride)
    if len(wire) != expected:
        return problems + [fail(path, f"file is {len(wire)} bytes but the header "
                                      f"implies {expected} "
                                      f"(N={device_count}, stride={stride})")]
    prev = -1
    for i in range(device_count):
        (device_id,) = struct.unpack_from("<Q", wire, 40 + 8 * i)
        if device_id <= prev:
            problems.append(fail(path, f"device index not strictly increasing "
                                       f"at entry {i} ({device_id:#x} after {prev:#x})"))
            break
        prev = device_id
    if not problems:
        print(f"{path}: {device_count} devices, {response_bits}-bit responses, "
              f"{helper_bits}-bit helper data, model {model}, seed {fleet_seed}")
    return problems


# resource.jsonl (telemetry/prof.hpp ResourceSampler): one sample object per
# line.  Timestamps are derived from a cached epoch plus the steady clock, so
# they must be strictly positive and non-decreasing across the file.
RESOURCE_KEYS = {
    "ts_unix_ms": lambda v: isinstance(v, (int, float)) and v > 0,
    "rss_kib": lambda v: isinstance(v, (int, float)) and v >= 0,
    "peak_rss_kib": lambda v: isinstance(v, (int, float)) and v >= 0,
    "cpu_user_ms": lambda v: isinstance(v, (int, float)) and v >= 0,
    "cpu_sys_ms": lambda v: isinstance(v, (int, float)) and v >= 0,
    "cpu_pct": lambda v: isinstance(v, (int, float)) and v >= 0,
    "threads": lambda v: isinstance(v, (int, float)) and v >= 0,
}


def validate_resource(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except OSError as e:
        return [fail(path, f"unreadable: {e}")]
    problems = []
    samples = 0
    prev_ts = None
    lines = text.splitlines()
    # The sampler may be killed mid-append: a byte-truncated last line is a
    # writer artifact rather than a schema violation.
    if text and not text.endswith("\n") and lines:
        lines = lines[:-1]
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            sample = json.loads(line)
        except json.JSONDecodeError:
            problems.append(fail(path, f"line {i + 1} is not valid JSON"))
            continue
        if not isinstance(sample, dict):
            problems.append(fail(path, f"line {i + 1} is not an object"))
            continue
        samples += 1
        for key, ok in RESOURCE_KEYS.items():
            if key not in sample:
                problems.append(fail(path, f"line {i + 1} missing '{key}'"))
            elif not ok(sample[key]):
                problems.append(fail(path, f"line {i + 1} key '{key}' invalid"))
        ts = sample.get("ts_unix_ms")
        if isinstance(ts, (int, float)):
            if prev_ts is not None and ts < prev_ts:
                problems.append(fail(path, f"line {i + 1} timestamp went backwards "
                                           f"({ts} < {prev_ts})"))
            prev_ts = ts
        rss = sample.get("rss_kib")
        peak = sample.get("peak_rss_kib")
        if isinstance(rss, (int, float)) and isinstance(peak, (int, float)) and \
                peak > 0 and rss > peak:
            problems.append(fail(path, f"line {i + 1} has rss_kib > peak_rss_kib"))
    if samples == 0:
        problems.append(fail(path, "no resource samples"))
    return problems


def strip_raw_values(doc: dict) -> dict:
    """Drops the embedded per-chip value arrays from results.samples.

    diff-stats compares the *statistics* for invariance, and a kept-policy
    aggregate must compare equal to a dropped-policy one over the same study:
    the values arrays are a payload difference by design, not a statistics
    difference.
    """
    if not isinstance(doc, dict):
        return doc
    results = doc.get("results")
    samples = results.get("samples") if isinstance(results, dict) else None
    if isinstance(samples, dict):
        for series in samples.values():
            if isinstance(series, dict):
                series.pop("values", None)
    return doc


def diff_stats(path_a: Path, path_b: Path, *, ignore_raw_policy: bool = False) -> list[str]:
    docs = []
    for path in (path_a, path_b):
        try:
            docs.append(strip_raw_values(json.loads(path.read_text())))
        except (OSError, json.JSONDecodeError) as e:
            return [fail(path, f"unreadable or invalid JSON: {e}")]
    problems = []
    # A kept-vs-dropped comparison is only *statistically* equal: one side has
    # discarded its raw series, so "identical" would overstate what was
    # checked.  Refuse unless the caller opts in explicitly.
    policy_a = docs[0].get("raw_series")
    policy_b = docs[1].get("raw_series")
    if policy_a != policy_b and not ignore_raw_policy:
        problems.append(
            f"raw_series policy differs: {path_a} is {policy_a!r} but {path_b} is "
            f"{policy_b!r}; pass --ignore-raw-policy to compare statistics only")
    for section in INVARIANT_SECTIONS:
        a = docs[0].get(section)
        b = docs[1].get(section)
        if (a is None) != (b is None):
            problems.append(f"section '{section}' present in only one manifest")
            continue
        if a is None:
            continue
        # Canonical dumps compare numbers by their exact JSON token (repr of
        # the parsed float), so equality here is bit-identity of the doubles.
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            problems.append(
                f"section '{section}' differs between {path_a} and {path_b} "
                "(shard decomposition changed the statistics)")
    return problems


def validate_trace(path: Path) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [fail(path, f"unreadable or invalid JSON: {e}")]
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return [fail(path, "expected an object with a 'traceEvents' array")]
    problems = []
    events = doc["traceEvents"]
    if not events:
        problems.append(fail(path, "traceEvents is empty"))
    saw_complete = False
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(fail(path, f"traceEvents[{i}] is not an object"))
            continue
        for key in TRACE_EVENT_KEYS:
            if key not in event:
                problems.append(fail(path, f"traceEvents[{i}] missing '{key}'"))
        ph = event.get("ph")
        if ph == "X":
            saw_complete = True
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                problems.append(fail(path, f"traceEvents[{i}] 'X' event needs numeric 'dur'"))
            if not isinstance(event.get("ts"), (int, float)) or event["ts"] < 0:
                problems.append(fail(path, f"traceEvents[{i}] needs numeric 'ts'"))
        elif ph == "C":
            # Counter events (resource sampler): instantaneous, so no 'dur';
            # the args object carries the numeric series Perfetto plots.
            if "dur" in event:
                problems.append(fail(path, f"traceEvents[{i}] 'C' event must not carry 'dur'"))
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(fail(path, f"traceEvents[{i}] 'C' event needs a non-empty args object"))
            else:
                for key, value in args.items():
                    if not isinstance(value, (int, float)):
                        problems.append(fail(
                            path, f"traceEvents[{i}] 'C' series '{key}' is not numeric"))
        elif ph not in ("M",):
            problems.append(fail(path, f"traceEvents[{i}] unexpected ph {ph!r}"))
    if events and not saw_complete:
        problems.append(fail(path, "no complete ('X') span events"))
    return problems


def main(argv: list[str]) -> int:
    args = argv[1:]
    mode = "manifest"
    modes = {
        "--trace": "trace",
        "--aggregate": "aggregate",
        "--resource": "resource",
        "--binary": "binary",
        "--auth-store": "auth-store",
        "--diff-stats": "diff-stats",
    }
    if args and args[0] in modes:
        mode = modes[args[0]]
        args = args[1:]
    ignore_raw_policy = "--ignore-raw-policy" in args
    args = [a for a in args if a != "--ignore-raw-policy"]
    if not args or (mode == "diff-stats" and len(args) != 2):
        print(__doc__.strip(), file=sys.stderr)
        return 1

    if mode == "diff-stats":
        problems = diff_stats(Path(args[0]), Path(args[1]),
                              ignore_raw_policy=ignore_raw_policy)
        for p in problems:
            print(p, file=sys.stderr)
        if not problems:
            print(f"invariant sections {INVARIANT_SECTIONS} are identical")
        return 1 if problems else 0

    validate = {
        "manifest": validate_manifest,
        "trace": validate_trace,
        "aggregate": validate_aggregate,
        "resource": validate_resource,
        "binary": validate_binary,
        "auth-store": validate_auth_store,
    }[mode]
    problems = []
    for name in args:
        problems.extend(validate(Path(name)))
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        print(f"{len(args)} {mode} file(s) OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
