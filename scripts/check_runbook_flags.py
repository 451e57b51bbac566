#!/usr/bin/env python3
"""Checks that the runbooks' flag tables name only flags the tools accept.

Every `--flag` in the first cell of a row of a runbook table whose header
starts with "flag" must appear in the `--help` output of the binary that
runbook documents.  A misspelt or removed flag in the docs fails the check.

Usage: check_runbook_flags.py RUNBOOK.md BINARY [RUNBOOK.md BINARY ...]
"""

from __future__ import annotations

import re
import subprocess
import sys

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
CELL_SPLIT = re.compile(r"(?<!\\)\|")


def cells(line: str) -> list[str]:
    return [c.strip() for c in CELL_SPLIT.split(line.strip())[1:-1]]


def table_flags(path: str) -> list[tuple[int, str]]:
    """(line number, flag) for every flag in the first cell of a flag-table row."""
    found = []
    row_index = 0  # position within the current table; 0 = header
    flag_table = False
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.lstrip().startswith("|"):
                row_index = 0
                continue
            row = cells(line)
            if row_index == 0:
                flag_table = bool(row) and row[0].lower() == "flag"
            elif row_index > 1 and flag_table and row:  # row 1 is the |---| rule
                found.extend((number, flag) for flag in FLAG.findall(row[0]))
            row_index += 1
    return found


def help_flags(binary: str) -> set[str]:
    proc = subprocess.run([binary, "--help"], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{binary} --help exited {proc.returncode}")
    return set(FLAG.findall(proc.stdout))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    failures = 0
    for runbook, binary in zip(argv[::2], argv[1::2]):
        documented = table_flags(runbook)
        if not documented:
            print(f"{runbook}: no flag table found")
            failures += 1
            continue
        accepted = help_flags(binary)
        for number, flag in documented:
            if flag not in accepted:
                print(f"{runbook}:{number}: {flag} is not listed by {binary} --help")
                failures += 1
        print(f"{runbook}: {len(documented)} documented flags checked against {binary}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
