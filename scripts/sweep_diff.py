#!/usr/bin/env python3
"""Compare two gkverify JSON reports, ignoring every ``elapsed`` field.

Usage: scripts/sweep_diff.py A.json B.json

Exits 0 when the reports are identical apart from timing, 1 otherwise after
printing every differing path, one per line in document order, and 2 when a
file cannot be read.  Uses the standard library only.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Iterator


def strip_elapsed(node: Any) -> Any:
    """The report with every ``elapsed`` key removed, at any depth."""
    if isinstance(node, dict):
        return {k: strip_elapsed(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [strip_elapsed(v) for v in node]
    return node


def differences(a: Any, b: Any, path: str = "$") -> Iterator[str]:
    """Every place where a and b differ, in document order."""
    if type(a) is not type(b):
        yield f"{path}: {type(a).__name__} != {type(b).__name__}"
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield f"{path}.{key}: present only in {'B' if key not in a else 'A'}"
            else:
                yield from differences(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        for idx, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{idx}]")
        if len(a) != len(b):
            yield f"{path}: length {len(a)} != {len(b)}"
    elif a != b:
        yield f"{path}: {a!r} != {b!r}"


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
    diffs = list(differences(*reports))
    for diff in diffs:
        print(diff)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
