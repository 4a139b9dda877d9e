"""Benchmark workloads and the verdict gate.

Each workload is a set of suites over a fixed list of parameter tuples, run
with ``k_max = l_max = 3`` and the default truncation depths.  The seed only
permutes the order of the parameter tuples; the report is sorted anyway.

The gate compares each verdict with the answer the paper gives, not with
the program's own prediction: every check is expected to pass, and the
obstruction checks must report the dichotomy (a degree-two annihilator
element exists at m = 0 and is obstructed at m >= 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

Tuple3 = Tuple[int, int, Optional[int]]

WORKLOADS: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple3, ...]]] = {
    # Every signature with p + q <= 8: the Lie and Weyl layers only.
    "lie_realization": (
        ("lie", "weyl"),
        tuple((p, q, None) for p in range(1, 8) for q in range(1, 9 - p)),
    ),
    # The module apply pipeline on ten variables at depth 14.
    "module_action": (("casimir", "module", "paction"), ((4, 6, 1),)),
    # Symmetric square and the obstruction, witness (m=0) and certificate (m=1).
    "annihilator": (("symsq", "garfinkle"), ((4, 4, 0), (4, 6, 1))),
}

# Tiny sizes for the harness self-test.
SELFTEST: Dict[str, Tuple[Tuple[str, ...], Tuple[Tuple3, ...]]] = {
    "lie_realization": (("lie", "weyl"), ((2, 2, None),)),
    "module_action": (("casimir", "module", "paction"), ((3, 3, 0),)),
    "annihilator": (("symsq", "garfinkle"), ((3, 3, 0),)),
}

K_MAX = L_MAX = 3


def _dichotomy_error(result: Dict) -> Optional[str]:
    """Why an obstruction verdict contradicts the paper, or None."""
    m = result["params"]["m"]
    per_sign = result["detail"].get("per_sign", {})
    if sorted(per_sign) != ["-1", "1"]:
        return "missing per-sign report"
    for sign, rep in per_sign.items():
        if result["name"] == "garfinkle.obstruction":
            if rep["exists"] != (m == 0):
                return f"sign {sign}: exists={rep['exists']} at m={m}"
            continue
        if rep["joseph_consistent"] != (m == 0):
            return f"sign {sign}: consistent={rep['joseph_consistent']} at m={m}"
        if m >= 1 and not (
            rep["casimir_step_ok"] and rep["s4_step_ok"] and not rep["obstruction"]["exists"]
        ):
            return f"sign {sign}: obstruction not isolated at m={m}"
    return None


def gate(results: Sequence[Dict]) -> Tuple[List[str], List[str]]:
    """Split wrong verdicts into (errors, wrong answers), one line each.

    An error is a check that raised instead of answering; a wrong answer is
    a check that answered and contradicts the known result.
    """
    errors, wrong = [], []
    for r in results:
        where = f"{r['name']} {r['params']}"
        if r["status"] == "error":
            errors.append(f"{where}: {r['detail'].get('error')}")
        elif r["status"] != "pass":
            wrong.append(f"{where}: reported {r['status']}")
        elif r["name"] in ("garfinkle.obstruction", "garfinkle.theorem"):
            why = _dichotomy_error(r)
            if why:
                wrong.append(f"{where}: {why}")
    return errors, wrong
