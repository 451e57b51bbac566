#!/usr/bin/env python3
"""Performance-regression gate over google-benchmark JSON output.

CI runs bench_micro with --benchmark_format=json and feeds the result here;
the gate compares against the checked-in bench/baseline.json and fails when
any gated benchmark regressed by more than the threshold (default 30 %).

Raw wall-clock times are useless across heterogeneous CI runners, so the
baseline stores *normalized ratios*: each benchmark's time divided by the
time of a CPU-bound normalizer benchmark (BM_GateNormalizer_1KiB) from the
same run.  The gated run repeats every row (--benchmark_repetitions=5) and
the gate reads each row's median, the normalizer's included, so one noisy
reading moves neither a row nor, through the normalizer, every ratio.  A runner that is 2x slower slows the benchmark AND the normalizer
2x, so the ratio — and therefore the gate — is machine-speed independent.
Only genuine relative slowdowns of the simulation kernels trip it.

The normalizer is frozen: bench/gate_normalizer.cpp is a verbatim copy of
the portable streaming SHA-256 the ratios were first recorded against, and
nothing else uses it.  The library's own SHA-256 (BM_Sha256_1KiB, ungated)
runs on SHA-NI where the CPU has it, about 5x faster; normalizing by it
would move every ratio whenever hashing got faster, or ran on another path.

Hardware-counter gating: bench_micro attaches perf_event user counters (ipc,
cache_miss_rate, ghz, ...) to its JSON when AROPUF_PROF=on and the kernel
grants counters.  baseline.json's "hw_counters" section holds per-benchmark
floors/ceilings (min_ipc, max_cache_miss_rate) checked by `counters` and by
`compare`.  Counters are gated separately from wall time because they fail
differently: an IPC collapse with flat wall time means the machine got
faster while the code got worse, which ratio gating alone cannot see.  When
the counter fields are absent (no PMU, AROPUF_PROF off) the checks skip with
a note instead of failing — CI runners without perf access stay green.

Profiling-overhead gating: baseline.json's "overheads" section pins the
cost of the observability layer itself — `overhead` compares a profiled run
against an unprofiled one (same build, same process kind) and fails when
the profiled wall time exceeds the budget (e.g. 2 % for the resource
sampler).  Min-across-repetitions is used on both sides so scheduler noise
on a loaded runner does not flag the layer.

Usage:
  perf_gate.py compare results.json     # exit 1 on any >threshold regression
  perf_gate.py update results.json      # refresh bench/baseline.json in place
  perf_gate.py self-test results.json   # canary: doctor one result 2x slower
                                        # and assert the gate catches it
  perf_gate.py counters results.json    # hw-counter floors/ceilings only
  perf_gate.py overhead off.json on.json  # profiling overhead budget

Baseline refresh procedure (after an intentional perf change):
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
  AROPUF_THREADS=1 build/bench/bench_micro --benchmark_format=json \
      --benchmark_filter='BM_(KernelFrequencies|AgingSeries200/1|ChipConstruction|ChipEvaluate|GateNormalizer|FoldShard|AuthVerify|KeyReconstruct|BchDecode/7/10)' \
      --benchmark_min_time=0.2 --benchmark_repetitions=5 > results.json
  python3 scripts/perf_gate.py update results.json
then commit bench/baseline.json with a note on why the numbers moved.

Note `update` only refreshes ratios for benchmarks already in the baseline;
a newly gated benchmark is added by hand-editing bench/baseline.json with a
locally measured ratio.  `compare` FAILS when a baseline-gated benchmark is
missing from the results, so extend the CI --benchmark_filter in the same
change that adds the entry.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "bench" / "baseline.json"
NORMALIZER = "BM_GateNormalizer_1KiB"
DEFAULT_THRESHOLD = 0.30

_UNIT_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_times_ns(results_path: Path) -> dict[str, float]:
    """name -> median real_time in ns across the repetitions of every plain
    (non-aggregate) benchmark."""
    with results_path.open() as fh:
        data = json.load(fh)
    runs: dict[str, list[float]] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or "aggregate_name" in bench:
            continue
        if bench.get("error_occurred"):
            continue  # e.g. the simd row skipping itself on a non-AVX2 CPU
        t = float(bench["real_time"]) * _UNIT_TO_NS[bench.get("time_unit", "ns")]
        runs.setdefault(bench["name"], []).append(t)
    return {name: statistics.median(ts) for name, ts in runs.items()}


def load_min_times_ns(results_path: Path) -> dict[str, float]:
    """name -> minimum real_time in ns across repetitions.

    The overhead gate compares two absolute wall times from the same machine,
    so (unlike the median above, which serves ratios between rows) the min
    across repetitions is the right estimator: scheduler noise only ever adds
    time.
    """
    with results_path.open() as fh:
        data = json.load(fh)
    times: dict[str, float] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or "aggregate_name" in bench:
            continue
        if bench.get("error_occurred"):
            continue
        t = float(bench["real_time"]) * _UNIT_TO_NS[bench.get("time_unit", "ns")]
        name = bench["name"]
        times[name] = min(times[name], t) if name in times else t
    return times


# User counters bench_micro attaches via state.counters when hardware
# counters are live.  Their presence in the JSON is how the gate knows the
# run was counter-profiled at all.
COUNTER_FIELDS = ("ipc", "ghz", "cycles", "instructions", "cache_miss_rate",
                  "branch_misses")


def load_counters(results_path: Path) -> dict[str, dict[str, float]]:
    """name -> {counter: value} for benchmarks that carry hw counters."""
    with results_path.open() as fh:
        data = json.load(fh)
    counters: dict[str, dict[str, float]] = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate" or "aggregate_name" in bench:
            continue
        if bench.get("error_occurred"):
            continue
        row = {f: float(bench[f]) for f in COUNTER_FIELDS
               if isinstance(bench.get(f), (int, float))}
        if row and bench["name"] not in counters:
            counters[bench["name"]] = row
    return counters


def normalized_ratios(times: dict[str, float]) -> dict[str, float]:
    if NORMALIZER not in times:
        sys.exit(f"error: normalizer benchmark {NORMALIZER!r} missing from results "
                 "(it must run in the same bench_micro invocation)")
    norm = times[NORMALIZER]
    return {name: t / norm for name, t in times.items() if name != NORMALIZER}


def load_baseline(baseline_path: Path) -> dict:
    with baseline_path.open() as fh:
        return json.load(fh)


def compare(ratios: dict[str, float], baseline: dict, *, quiet: bool = False) -> list[str]:
    """Returns the list of regression messages (empty == gate passes)."""
    threshold = float(baseline.get("threshold", DEFAULT_THRESHOLD))
    failures: list[str] = []
    for name, base_ratio in sorted(baseline["benchmarks"].items()):
        if name not in ratios:
            failures.append(f"{name}: missing from results (gated benchmark not run)")
            continue
        ratio = ratios[name]
        change = ratio / base_ratio - 1.0
        status = "OK"
        if change > threshold:
            status = "REGRESSION"
            failures.append(
                f"{name}: normalized ratio {ratio:.4g} vs baseline {base_ratio:.4g} "
                f"({change:+.1%} > +{threshold:.0%} threshold)")
        elif change < -threshold:
            status = "faster (consider refreshing the baseline)"
        if not quiet:
            print(f"  {name}: {ratio:.4g} (baseline {base_ratio:.4g}, {change:+.1%}) {status}")
    failures += compare_speedups(ratios, baseline, quiet=quiet)
    return failures


def compare_speedups(ratios: dict[str, float], baseline: dict, *,
                     quiet: bool = False) -> list[str]:
    """Minimum-speedup floors: pairs where `fast` must beat `slow` by >= min.

    Unlike the per-benchmark regression ratios, a speedup is a property of
    one run (both sides measured on the same machine in the same process),
    so the floor holds absolutely — no normalization or drift margin needed.
    Used to gate the binary shard transport's >= 5x fold advantage over JSON.
    """
    failures: list[str] = []
    for label, spec in sorted(baseline.get("speedups", {}).items()):
        fast, slow, floor = spec["fast"], spec["slow"], float(spec["min"])
        missing = [n for n in (fast, slow) if n not in ratios]
        if missing:
            failures.append(f"speedup {label}: benchmark(s) {missing} missing from results")
            continue
        speedup = ratios[slow] / ratios[fast]
        status = "OK"
        if speedup < floor:
            status = "BELOW FLOOR"
            failures.append(
                f"speedup {label}: {slow} / {fast} = {speedup:.2f}x, "
                f"required >= {floor:.2f}x")
        if not quiet:
            print(f"  speedup {label}: {speedup:.2f}x (floor {floor:.2f}x) {status}")
    return failures


def compare_counters(counters: dict[str, dict[str, float]], baseline: dict, *,
                     quiet: bool = False) -> tuple[list[str], list[str]]:
    """Hardware-counter floors/ceilings; returns (failures, skip notes).

    A missing counter column is a *skip*, not a failure: perf_event access
    is a runner property (paranoid level, container PMU passthrough), and a
    gate that fails wherever counters are unavailable would just get
    disabled.  The skip note keeps the absence visible in the CI log.
    """
    failures: list[str] = []
    notes: list[str] = []
    for name, spec in sorted(baseline.get("hw_counters", {}).items()):
        row = counters.get(name)
        if row is None:
            notes.append(f"hw_counters {name}: no counter columns in results "
                         "(no PMU or AROPUF_PROF off) — skipped")
            continue
        checks = []
        if "min_ipc" in spec:
            checks.append(("ipc", float(spec["min_ipc"]), ">="))
        if "max_cache_miss_rate" in spec:
            checks.append(("cache_miss_rate", float(spec["max_cache_miss_rate"]), "<="))
        for field, bound, op in checks:
            if field not in row:
                notes.append(f"hw_counters {name}: field '{field}' absent — skipped")
                continue
            value = row[field]
            bad = value < bound if op == ">=" else value > bound
            status = "VIOLATION" if bad else "OK"
            if bad:
                failures.append(f"hw_counters {name}: {field} = {value:.4g}, "
                                f"required {op} {bound:.4g}")
            if not quiet:
                print(f"  hw {name}: {field} = {value:.4g} "
                      f"(bound {op} {bound:.4g}) {status}")
    return failures, notes


def cmd_compare(args: argparse.Namespace) -> int:
    ratios = normalized_ratios(load_times_ns(args.results))
    baseline = load_baseline(args.baseline)
    print(f"perf gate: {args.results} vs {args.baseline} "
          f"(threshold +{float(baseline.get('threshold', DEFAULT_THRESHOLD)):.0%}, "
          f"normalizer {NORMALIZER})")
    failures = compare(ratios, baseline)
    counter_failures, notes = compare_counters(load_counters(args.results), baseline)
    failures += counter_failures
    for note in notes:
        print(f"  note: {note}")
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        print("\nIf the slowdown is intentional, refresh the baseline "
              "(see scripts/perf_gate.py docstring) and commit bench/baseline.json.")
        return 1
    print("perf gate passed")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    ratios = normalized_ratios(load_times_ns(args.results))
    speedups: dict = {}
    overheads: dict = {}
    hw_counters: dict = {}
    try:
        old = load_baseline(args.baseline)
        threshold = float(old.get("threshold", DEFAULT_THRESHOLD))
        speedups = old.get("speedups", {})
        overheads = old.get("overheads", {})
        hw_counters = old.get("hw_counters", {})
        gated = [name for name in old["benchmarks"] if name in ratios]
        missing = sorted(set(old["benchmarks"]) - set(ratios))
        if missing:
            sys.exit("error: results are missing gated benchmarks "
                     f"{missing}; run bench_micro with a filter covering all of them")
    except FileNotFoundError:
        threshold = DEFAULT_THRESHOLD
        gated = sorted(ratios)
    baseline = {
        "normalizer": NORMALIZER,
        "threshold": threshold,
        "benchmarks": {name: round(ratios[name], 6) for name in sorted(gated)},
    }
    if speedups:
        baseline["speedups"] = speedups
    if overheads:
        baseline["overheads"] = overheads
    if hw_counters:
        baseline["hw_counters"] = hw_counters
    with args.baseline.open("w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.baseline} ({len(gated)} gated benchmarks)")
    return 0


def cmd_counters(args: argparse.Namespace) -> int:
    baseline = load_baseline(args.baseline)
    if not baseline.get("hw_counters"):
        print("no hw_counters section in baseline — nothing to gate")
        return 0
    counters = load_counters(args.results)
    print(f"hw-counter gate: {args.results} vs {args.baseline}")
    failures, notes = compare_counters(counters, baseline)
    for note in notes:
        print(f"  note: {note}")
    if failures:
        print("\nhw-counter gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("hw-counter gate passed")
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    baseline = load_baseline(args.baseline)
    overheads = baseline.get("overheads", {})
    if not overheads:
        print("no overheads section in baseline — nothing to gate")
        return 0
    off_times = load_min_times_ns(args.results)
    on_times = load_min_times_ns(args.profiled)
    print(f"overhead gate: {args.profiled} (profiled) vs {args.results} (plain)")
    failures: list[str] = []
    for label, spec in sorted(overheads.items()):
        name = spec["benchmark"]
        budget = float(spec["max_overhead"])
        missing = [p for p, times in ((args.results, off_times), (args.profiled, on_times))
                   if name not in times]
        if missing:
            failures.append(f"overhead {label}: benchmark {name!r} missing from "
                            f"{', '.join(map(str, missing))}")
            continue
        overhead = on_times[name] / off_times[name] - 1.0
        status = "OK"
        if overhead > budget:
            status = "OVER BUDGET"
            failures.append(f"overhead {label}: {name} profiled run is "
                            f"{overhead:+.2%}, budget +{budget:.0%}")
        print(f"  {label}: {name} {overhead:+.2%} (budget +{budget:.0%}) {status}")
    if failures:
        print("\noverhead gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        print("\nThe profiling layer itself got more expensive — check the "
              "sampler cadence and per-scope counter reads before raising the budget.")
        return 1
    print("overhead gate passed")
    return 0


def cmd_self_test(args: argparse.Namespace) -> int:
    """Canary: a synthetic 2x slowdown of one gated benchmark MUST fail."""
    ratios = normalized_ratios(load_times_ns(args.results))
    baseline = load_baseline(args.baseline)
    gated = [name for name in baseline["benchmarks"] if name in ratios]
    if not gated:
        sys.exit("error: no gated benchmark present in results")
    clean = compare(ratios, baseline, quiet=True)
    if clean:
        sys.exit("error: self-test needs a passing run to doctor, but the gate "
                 f"already fails: {clean}")
    victim = gated[0]
    doctored = dict(ratios)
    doctored[victim] *= 2.0
    failures = compare(doctored, baseline, quiet=True)
    if not failures:
        sys.exit(f"error: gate did NOT flag a synthetic 2x slowdown of {victim} — "
                 "the regression check is broken")
    print(f"self-test passed: synthetic 2x slowdown of {victim} was flagged "
          f"({len(failures)} failure(s)) and the undoctored run passes")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("compare", cmd_compare), ("update", cmd_update),
                     ("self-test", cmd_self_test), ("counters", cmd_counters),
                     ("overhead", cmd_overhead)):
        p = sub.add_parser(name)
        p.add_argument("results", type=Path, help="google-benchmark JSON output")
        if name == "overhead":
            p.add_argument("profiled", type=Path,
                           help="JSON from the same benchmark with AROPUF_PROF=on")
        p.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
        p.set_defaults(fn=fn)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
