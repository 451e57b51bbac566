#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root.  Builds the benchmark binary (perfbench/CMakeLists.txt,
which builds the library from the repository's own CMake tree) into
.bench_build/perfbench, runs one workload, and prints the binary's output.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics BENCHMARK.json names for the mode -- its end_to_end metrics with
--trace 0, its per_layer metrics with --trace 1.  A per-layer metric the
workload does not exercise reads 0.  Build output goes to stderr.

setup_s is the median over SETUP_SAMPLES fresh processes -- SETUP_SAMPLES - 1
set-up-only runs of the binary, then the measured run -- of the time from
launching the process to the set-up marker line it prints just before its
first timed call, so one-time start-up costs count in every sample.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "aropuf_perfbench")
RUN_TIMEOUT_S = 170
SETUP_SAMPLES = 5
SETUP_DONE = "perfbench: set-up done"


def build():
    """Configures once, then lets ninja/make decide what is stale."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    generated = any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile"))
    if not generated:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "aropuf_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit("perfbench: build step failed: " + " ".join(cmd))


def run_binary(cmd, deadline):
    """Runs the binary to completion.  Returns its exit code, its stdout lines
    and the seconds from launch to the set-up marker (None if never printed).
    Kills it at `deadline` (time.monotonic())."""
    timed_out = []

    def kill():
        timed_out.append(True)
        proc.kill()

    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - start), kill)
    timer.start()
    lines, setup_s = [], None
    try:
        for line in proc.stdout:
            if setup_s is None and line.rstrip("\n") == SETUP_DONE:
                setup_s = time.monotonic() - start
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if timed_out:
        raise SystemExit("perfbench: binary exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, lines, setup_s


def select_metrics(result, spec, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": m["unit"]}
        elif trace:
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            raise SystemExit("perfbench: binary did not report end-to-end metric " + name)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_samples = []
    if args.self_check:
        cmd = [BINARY, "--self-check"]
    else:
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise SystemExit("perfbench: unknown workload %r (have %s)" % (args.workload, names))
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(ROOT, ".bench_build", "traces")]
        for _ in range(SETUP_SAMPLES - 1):
            code, _, setup_s = run_binary(cmd + ["--setup-only"], deadline)
            if code != 0 or setup_s is None:
                raise SystemExit("perfbench: set-up-only run exited with code %d" % code)
            setup_samples.append(setup_s)
    code, lines, setup_s = run_binary(cmd, deadline)
    if code != 0 or not lines:
        print("\n".join(lines))
        raise SystemExit("perfbench: binary exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    if args.self_check:
        print(lines[-1])
        return
    if setup_s is None:
        raise SystemExit("perfbench: the run printed no set-up marker")
    setup_samples.append(setup_s)
    print("perfbench: set-up seconds from process launch: "
          + " ".join("%.4f" % t for t in setup_samples))

    result = json.loads(lines[-1])
    result["metrics"]["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(result, spec, args.trace == 1),
    }
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
