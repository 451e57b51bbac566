#!/usr/bin/env python3
"""Runs perf_gate.py's self-test on a synthetic bench run (ctest leg
tools.perf_gate_self_test).

The synthetic run puts every gated row of bench/baseline.json at its
baseline ratio, except BM_AgingSeries200/1, which runs at half of it: a row
with more headroom than the canary's 2x.  `compare` passes such a run, so
`self-test` must pass it too, and flag each gated row at 2x its baseline.

Usage: perf_gate_canary.py OUT_DIR
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
BASELINE = SCRIPTS.parent / "bench" / "baseline.json"
NORMALIZER_NS = 1000.0
FAST_ROW = "BM_AgingSeries200/1/process_time/real_time"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE.read_text())
    rows = [{"name": baseline["normalizer"], "real_time": NORMALIZER_NS}]
    for name, ratio in baseline["benchmarks"].items():
        scale = 0.5 if name == FAST_ROW else 1.0
        rows.append({"name": name, "real_time": scale * float(ratio) * NORMALIZER_NS})
    for row in rows:
        row.update(run_type="iteration", time_unit="ns")
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    results = out / "canary-results.json"
    results.write_text(json.dumps({"benchmarks": rows}, indent=1) + "\n")
    return subprocess.run([sys.executable, str(SCRIPTS / "perf_gate.py"), "self-test",
                           str(results)], check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
