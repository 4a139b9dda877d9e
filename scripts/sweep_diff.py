#!/usr/bin/env python3
"""Compare two gkverify JSON reports, ignoring every ``elapsed`` field.

Usage: scripts/sweep_diff.py A.json B.json

Exits 0 when the reports are identical apart from timing, 1 with the first
differing path otherwise, and 2 when a file cannot be read.  Uses the
standard library only.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Optional


def strip_elapsed(node: Any) -> Any:
    """The report with every ``elapsed`` key removed, at any depth."""
    if isinstance(node, dict):
        return {k: strip_elapsed(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [strip_elapsed(v) for v in node]
    return node


def first_difference(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """The path of the first place where a and b differ, or None."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: present only in {'B' if key not in a else 'A'}"
            diff = first_difference(a[key], b[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(a, list):
        for idx, (x, y) in enumerate(zip(a, b)):
            diff = first_difference(x, y, f"{path}[{idx}]")
            if diff:
                return diff
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        reports = []
        for name in argv[1:]:
            with open(name) as fh:
                reports.append(strip_elapsed(json.load(fh)))
    except (OSError, ValueError) as exc:
        print(f"sweep_diff: {exc}", file=sys.stderr)
        return 2
    diff = first_difference(*reports)
    if diff:
        print(diff)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
