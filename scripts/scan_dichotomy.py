#!/usr/bin/env python3
"""Run suites over every valid (p, q, m) with p + q <= N.

Usage: scripts/scan_dichotomy.py [N] [--suite S[,S...]]
       (N defaults to 12, the suites to garfinkle; "all" names every suite)

A tuple is valid when p, q >= 2, p + q is even and m + 3 <= (p + q)/2.
Every job must pass, and for both signs the obstruction must find a
degree-two annihilator element, and the theorem assembly be consistent,
exactly when m == 0.  Prints one line per disagreement (a job that is not
a pass, or a garfinkle verdict that contradicts m == 0) and a summary
line; with suites other than garfinkle alone, the summary also counts the
jobs by status, and a line before it gives the scan's wall time in seconds
and the three checks with the largest elapsed time summed over the tuples.
Exits 1 when any verdict disagrees, 0 otherwise.  The package is imported
from the checkout's src/.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gkverify.checks import (  # noqa: E402
    CheckResult,
    execute_jobs,
    plan_jobs,
    resolve_suites,
    selected_checks,
)

Tuple3 = Tuple[int, int, int]
DEFAULT_SUITES = ("garfinkle",)


def valid_tuples(n_max: int) -> List[Tuple3]:
    """Every valid (p, q, m) with p + q <= n_max, by p + q, then p, then m."""
    return [
        (p, n - p, m)
        for n in range(4, n_max + 1, 2)
        for p in range(2, n - 1)
        for m in range(n // 2 - 2)
    ]


def run(tuples: Sequence[Tuple3], suites: Sequence[str] = DEFAULT_SUITES) -> List[CheckResult]:
    """Every job of the suites over `tuples`, with k_max = l_max = 3."""
    return execute_jobs(plan_jobs(selected_checks(suites), tuples, 3, 3))


def disagreements(results: Sequence[CheckResult]) -> List[str]:
    """One line per result that is not a pass, and per garfinkle verdict
    that contradicts m == 0; empty when every verdict agrees."""
    out = []
    for r in results:
        where = f"{r.name} {r.params}"
        if r.status != "pass":
            out.append(f"{where}: {r.status} {r.detail}")
            continue
        if not r.name.startswith("garfinkle."):
            continue
        field = "exists" if r.name == "garfinkle.obstruction" else "joseph_consistent"
        for sign, rep in sorted(r.detail["per_sign"].items()):
            if rep[field] != (r.params["m"] == 0):
                out.append(f"{where} sign {sign}: {field} = {rep[field]}")
    return out


def timing_line(results: Sequence[CheckResult], seconds: float) -> str:
    """The scan's seconds and the three checks with the largest summed elapsed."""
    per_check: Counter = Counter()
    for r in results:
        per_check[r.name] += r.elapsed
    slowest = ", ".join(f"{name} {t:.2f} s" for name, t in per_check.most_common(3))
    return f"{seconds:.2f} s in total; largest summed elapsed: {slowest}"


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("n_max", nargs="?", type=int, default=12, metavar="N")
    parser.add_argument("--suite", default=",".join(DEFAULT_SUITES))
    args = parser.parse_args(argv)
    try:
        suites = resolve_suites([s.strip() for s in args.suite.split(",") if s.strip()])
    except ValueError as exc:
        parser.error(str(exc))
    tuples = valid_tuples(args.n_max)
    start = time.perf_counter()
    results = run(tuples, suites)
    seconds = time.perf_counter() - start
    bad = disagreements(results)
    for line in bad:
        print(line)
    head = f"{len(tuples)} tuples with p + q <= {args.n_max}"
    if suites == DEFAULT_SUITES:
        print(f"{head}: {len(bad)} verdicts disagree with m == 0")
    else:
        print(timing_line(results, seconds))
        statuses = ", ".join(f"{n} {s}" for s, n in sorted(Counter(r.status for r in results).items()))
        print(f"{head}, suites {','.join(suites)}: {len(results)} jobs ({statuses}); {len(bad)} disagree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
