#!/usr/bin/env python3
"""Dead-reference checker for the repository's markdown documentation.

Docs here cross-reference source files heavily ("see src/circuit/delay_kernel.hpp")
and those references rot silently when files move.  This script walks the
given markdown files and fails when a referenced repo path does not exist.

Two reference forms are checked:
  * markdown links  [text](relative/path)  — resolved against the md file's
    directory, then against the repo root; http(s)/mailto/# links are skipped;
  * backticked path tokens  `src/foo/bar.hpp`, `scripts/perf_gate.py`,
    `src/circuit/delay_kernel.{hpp,cpp}` — any token containing a '/' that
    looks like a file path.  Brace groups expand ({hpp,cpp} checks both),
    a trailing :line anchor is dropped, and tokens with wildcards or shell
    syntax are ignored.

Paths under build trees are skipped: they are generated, not tracked.

Arguments may be markdown files or directories; a directory is crawled
recursively for *.md (so `check_links.py docs/` covers every runbook without
the CI invocation needing an update per new file).

Usage: check_links.py README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
# A backticked token is treated as a path when it is purely path-shaped and
# contains a directory separator (so `a / b` prose or code snippets don't match).
PATH_TOKEN = re.compile(r"^[A-Za-z0-9_.{},/-]+$")
LINE_ANCHOR = re.compile(r":\d+(?:-\d+)?$")
BRACE_GROUP = re.compile(r"\{([^{}]*)\}")


def expand_braces(token: str) -> list[str]:
    """delay_kernel.{hpp,cpp} -> [delay_kernel.hpp, delay_kernel.cpp]."""
    match = BRACE_GROUP.search(token)
    if not match:
        return [token]
    head, tail = token[: match.start()], token[match.end():]
    expanded: list[str] = []
    for option in match.group(1).split(","):
        expanded.extend(expand_braces(head + option + tail))
    return expanded


def is_checkable(token: str) -> bool:
    if "/" not in token or not PATH_TOKEN.match(token):
        return False
    if "*" in token or token.startswith("-"):
        return False
    first = token.split("/", 1)[0]
    if first.startswith("build"):
        return False  # generated build trees
    # Only flag references into the repo, not abstract paths like a/b.
    return (REPO_ROOT / first).exists()


def exists_as_target(path: Path) -> bool:
    """True for extensionless build-target references like `tools/aropuf_shard`
    whose source file exists — docs name binaries by target, not by .cpp."""
    if path.suffix:
        return False
    return any(path.with_suffix(ext).exists() for ext in (".cpp", ".hpp"))


def check_file(md_file: Path) -> list[str]:
    errors: list[str] = []
    text = md_file.read_text()
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue

        candidates: list[str] = []
        if not in_fence:
            for target in MD_LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                candidates.append(target.split("#", 1)[0])
        # Backticked paths are checked even inside fences: command examples
        # referring to missing scripts are exactly the rot we want to catch.
        for token in BACKTICK.findall(line):
            token = LINE_ANCHOR.sub("", token.strip())
            if is_checkable(token):
                candidates.append(token)

        for candidate in candidates:
            for path in expand_braces(candidate):
                resolved_local = (md_file.parent / path).resolve()
                resolved_root = (REPO_ROOT / path).resolve()
                if not resolved_root.is_relative_to(REPO_ROOT):
                    continue  # escapes the repo (e.g. GitHub-relative badge URLs)
                if (not resolved_local.exists() and not resolved_root.exists()
                        and not exists_as_target(resolved_root)):
                    label = (md_file.relative_to(REPO_ROOT)
                             if md_file.is_relative_to(REPO_ROOT) else md_file)
                    errors.append(f"{label}:{lineno}: dead reference `{path}`")
    return errors


def collect_markdown(arg: Path) -> list[Path]:
    """A file is taken as-is; a directory is crawled recursively for *.md."""
    if arg.is_dir():
        return sorted(p for p in arg.rglob("*.md") if "build" not in p.parts)
    return [arg]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    all_errors: list[str] = []
    checked = 0
    for name in argv[1:]:
        arg = Path(name).resolve()
        if not arg.exists():
            all_errors.append(f"{name}: file not found")
            continue
        md_files = collect_markdown(arg)
        if arg.is_dir() and not md_files:
            all_errors.append(f"{name}: directory holds no markdown files")
            continue
        for md_file in md_files:
            all_errors.extend(check_file(md_file))
            checked += 1
    if all_errors:
        print("dead documentation references:")
        for error in all_errors:
            print(f"  {error}")
        return 1
    print(f"link check passed ({checked} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
