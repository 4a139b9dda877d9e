#!/usr/bin/env python3
"""Run the garfinkle suite over every valid (p, q, m) with p + q <= N.

Usage: scripts/scan_dichotomy.py [N]      (N defaults to 12)

A tuple is valid when p, q >= 2, p + q is even and m + 3 <= (p + q)/2.
Every garfinkle check must pass, and for both signs the obstruction must
find a degree-two annihilator element, and the theorem assembly be
consistent, exactly when m == 0.  Prints one line per disagreement and a
summary line; exits 1 when any verdict disagrees, 0 otherwise.  The
package is imported from the checkout's src/.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gkverify.checks import execute_jobs, plan_jobs, selected_checks  # noqa: E402

Tuple3 = Tuple[int, int, int]


def valid_tuples(n_max: int) -> List[Tuple3]:
    """Every valid (p, q, m) with p + q <= n_max, by p + q, then p, then m."""
    return [
        (p, n - p, m)
        for n in range(4, n_max + 1, 2)
        for p in range(2, n - 1)
        for m in range(n // 2 - 2)
    ]


def disagreements(tuples: Sequence[Tuple3]) -> List[str]:
    """One line per garfinkle verdict over `tuples` that is not a pass or
    that contradicts m == 0; empty when every verdict agrees."""
    results = execute_jobs(plan_jobs(selected_checks(["garfinkle"]), tuples, 3, 3))
    out = []
    for r in results:
        where = f"{r.name} {r.params}"
        if r.status != "pass":
            out.append(f"{where}: {r.status} {r.detail}")
            continue
        field = "exists" if r.name == "garfinkle.obstruction" else "joseph_consistent"
        for sign, rep in sorted(r.detail["per_sign"].items()):
            if rep[field] != (r.params["m"] == 0):
                out.append(f"{where} sign {sign}: {field} = {rep[field]}")
    return out


def main(argv: Sequence[str]) -> int:
    n_max = int(argv[0]) if argv else 12
    tuples = valid_tuples(n_max)
    bad = disagreements(tuples)
    for line in bad:
        print(line)
    print(f"{len(tuples)} tuples with p + q <= {n_max}: {len(bad)} verdicts disagree with m == 0")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
