"""Acceptance gate: nine exact criteria, each printed as one pass/fail line.

Every criterion is checked with zero tolerance (pure rational arithmetic)
and against a wall clock budget where one is specified.  The printed lines
survive pytest capture so a plain run shows the scoreboard.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from gkverify.gkmodule import (
    ModuleParams,
    eigenvalue_check,
    ktype_enumeration,
    p_action_check,
    verify_membership,
)
from gkverify.liealg import (
    LieElement,
    bracket,
    closed_operator,
    generators,
    pi_casimir,
    pi_generator,
    sl2_casimir_op,
    sl2_triple,
)
from gkverify.poly import VariableSpace, harmonic_basis
from gkverify.symsq import (
    decompose_S2,
    gamma2_q_identity,
    gamma2_xi_identity,
    s4_vanishing,
    theorem_ingredients,
)
from gkverify.weyl import WeylOperator
from helpers import pi_lie

SWEEP = ((2, 4, 0), (3, 3, 0), (4, 4, 0), (4, 4, 1), (4, 6, 2))
SWEEP_SIGS = tuple(dict.fromkeys((p, q) for p, q, _ in SWEEP))
SMALL_SIGS = tuple(
    (p, q) for p in range(1, 8) for q in range(1, 9 - p)
)  # every signature with p + q <= 8


def _criterion(capsys, num, label, ok, elapsed, budget=None):
    within = budget is None or elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    timing = f"{elapsed:.1f}s"
    if budget is not None:
        timing += f", budget {budget:.0f}s"
    with capsys.disabled():
        print(f"[criterion {num}] {status}: {label} ({timing})")
    assert ok, f"criterion {num}: {label}"
    if budget is not None:
        assert within, f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s"


def test_criterion_1_homomorphism_and_commutant(capsys):
    start = time.perf_counter()
    ok = True
    for p, q in SMALL_SIGS:
        space = VariableSpace(p, q)
        gens = generators(p, q, "M")
        basis = {g: LieElement.basis(g, (p, q)) for g in gens}
        images = {g: pi_generator(g, space) for g in gens}
        triple = sl2_triple(space)
        for a in gens:
            for b in gens:
                lhs = pi_lie(bracket(basis[a], basis[b]))
                if lhs != images[a].commutator(images[b]):
                    ok = False
        for g in gens:
            if any(not images[g].commutator(t).is_zero() for t in triple):
                ok = False
        if not ok:
            break
    _criterion(
        capsys,
        1,
        "operator images respect every bracket and commute with the sl2 triple, p+q <= 8",
        ok,
        time.perf_counter() - start,
        budget=10,
    )


def test_criterion_2_casimir_operator_identities(capsys):
    start = time.perf_counter()
    ok = True
    for p, q in SWEEP_SIGS:
        space = VariableSpace(p, q)
        n = p + q
        for which in ("op", "oq", "g"):
            if pi_casimir(space, which) != closed_operator(space, which):
                ok = False
        shift = WeylOperator.identity(space).scale(Fraction(-n * n, 4) + n)
        if pi_casimir(space, "g") != sl2_casimir_op(space) + shift:
            ok = False
    _criterion(
        capsys,
        2,
        "Casimir images equal their closed forms and the two-Casimir shift identity holds",
        ok,
        time.perf_counter() - start,
        budget=10,
    )


def test_criterion_3_membership(capsys):
    start = time.perf_counter()
    ok = True
    checked = 0
    for p, q, m in SWEEP:
        for sign in (1, -1):
            params = ModuleParams(p, q, m, sign)
            for kt in ktype_enumeration(params, 3, 3):
                report = verify_membership(params, kt)
                if not report.ok:
                    ok = False
                checked += 1
    _criterion(
        capsys,
        3,
        f"typical elements pass weight, annihilation, and power checks ({checked} elements)",
        ok and checked > 0,
        time.perf_counter() - start,
        budget=60,
    )


def test_criterion_4_eigenvalues(capsys):
    start = time.perf_counter()
    ok = True
    zero_scalars_ok = True
    kappa_map = {}
    for p, q, m in SWEEP:
        for sign in (1, -1):
            params = ModuleParams(p, q, m, sign)
            for kt in ktype_enumeration(params, 3, 3):
                for which in ("op", "oq", "g"):
                    if not eigenvalue_check(which, params, kt).ok:
                        ok = False
                xi_rep = eigenvalue_check("xi", params, kt)
                if not xi_rep.ok:
                    ok = False
                if m == 0 and xi_rep.scalar != 0:
                    zero_scalars_ok = False
                if (p, q, m, sign) == (4, 4, 1, 1):
                    key = (int(kt.kappa_plus), int(kt.kappa_minus))
                    kappa_map[key] = xi_rep.scalar
    split_ok = {kappa_map.get((3, 2)), kappa_map.get((2, 3))} == {
        Fraction(3),
        Fraction(-3),
    }
    _criterion(
        capsys,
        4,
        "operator eigenvalues match the closed scalars, vanish at m=0, and hit {3,-3}",
        ok and zero_scalars_ok and split_ok,
        time.perf_counter() - start,
        budget=60,
    )


def test_criterion_5_mixed_action(capsys):
    start = time.perf_counter()
    ok = True
    checked = 0
    for p, q, m in SWEEP:
        for sign in (1, -1):
            params = ModuleParams(p, q, m, sign)
            for kt in ktype_enumeration(params, 2, 2):
                if sign == 1 and kt.kappa_minus == 1:
                    continue
                if sign == -1 and kt.kappa_plus == 1:
                    continue
                h1 = harmonic_basis(params.space, "x", kt.k)[0]
                h2 = harmonic_basis(params.space, "y", kt.l)[0]
                if p_action_check(params, h1, h2) is not None:
                    ok = False
                checked += p * q
    _criterion(
        capsys,
        5,
        f"the mixed generator action equals its four-layer expansion ({checked} triples)",
        ok and checked > 0,
        time.perf_counter() - start,
        budget=120,
    )


def test_criterion_6_symmetric_square_identities(capsys):
    start = time.perf_counter()
    ok = True
    quartics = 0
    for sig in SMALL_SIGS:
        if not gamma2_q_identity(sig):
            ok = False
        if not gamma2_xi_identity(sig):
            ok = False
        count, all_zero = s4_vanishing(sig)
        if count != comb(sum(sig), 4) or not all_zero:
            ok = False
        quartics += count
    _criterion(
        capsys,
        6,
        f"squared tensors collapse to Casimir combinations; {quartics} quartic images vanish",
        ok,
        time.perf_counter() - start,
        budget=60,
    )


def test_criterion_7_decomposition(capsys):
    start = time.perf_counter()
    ok = True
    for n in range(4, 11):
        rep = decompose_S2(n)
        N = n * (n - 1) // 2
        expected = (
            1,
            comb(n, 4),
            n * (n + 1) // 2 - 1,
            n * (n + 1) * (n + 2) * (n - 3) // 12,
        )
        if rep.dims != expected:
            ok = False
        if sum(rep.dims) != rep.total_dim or rep.total_dim != N * (N + 1) // 2:
            ok = False
        if not rep.all_ok():
            ok = False
        if n == 6 and rep.dims != (1, 15, 20, 84):
            ok = False
    _criterion(
        capsys,
        7,
        "the symmetric square splits into four invariant pieces of the predicted sizes",
        ok,
        time.perf_counter() - start,
        budget=120,
    )


def test_criterion_8_annihilator_dichotomy(capsys):
    start = time.perf_counter()
    ok = True
    for p, q, m in ((2, 4, 0), (3, 3, 0), (4, 4, 0)):
        rep = theorem_ingredients(ModuleParams(p, q, m, 1))
        if not (rep.joseph_consistent and rep.predicted and rep.matches_prediction()):
            ok = False
    for p, q, m in ((4, 4, 1), (4, 6, 1), (4, 6, 2)):
        rep = theorem_ingredients(ModuleParams(p, q, m, 1))
        if rep.joseph_consistent or rep.predicted or not rep.matches_prediction():
            ok = False
        # the failure must come from the obstruction step alone
        if not (rep.casimir_step_ok and rep.s4_step_ok):
            ok = False
        if rep.obstruction.exists:
            ok = False
    _criterion(
        capsys,
        8,
        "annihilator dichotomy: consistent at m=0, blocked only by the obstruction at m>=1",
        ok,
        time.perf_counter() - start,
        budget=120,
    )


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_criterion_9_determinism(capsys, tmp_path):
    start = time.perf_counter()
    reports = []
    for tag in ("a", "b"):
        dest = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "gkverify.cli",
                "run",
                "--p", "4", "--q", "4", "--m", "1",
                "--format", "json",
                "--out", str(dest),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(_strip_timing(json.loads(dest.read_text())))
    _criterion(
        capsys,
        9,
        "two runs with identical configuration emit identical reports modulo timing",
        reports[0] == reports[1],
        time.perf_counter() - start,
    )
