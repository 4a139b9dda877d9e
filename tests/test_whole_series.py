"""The module identities decided for the whole series.

Each label diagonal of an eigenvalue, membership or mixed-action identity
is a polynomial in the series index t, of degree at most its largest term
bound, tested at t = 0 .. bound.  These tests check the bounds on every term
the checks build, compare every verdict with the depth-D label path of the
tests' reference at D = 30, and show that the mutations which the zero
tests must see fail them.
"""

import itertools
from math import comb

import pytest

import gkverify.gkmodule as gkmodule
from gkverify.cli import DEFAULT_SWEEP
from gkverify.gkmodule import ModuleParams, ktype_elements, ktype_enumeration, p_action_check
from gkverify.liealg import closed_form
from helpers import wrong_label_rule
from truncated_reference import (
    TruncatedTypical,
    action_labels_at,
    label_zero_test,
    membership_steps,
)

FORMS = ("op", "oq", "g", "xi")
STEPS = ("weight", "kill", "power")


def _families(p, q, m):
    return [ModuleParams(p, q, m, sign) for sign in (1, -1)]


def _identities(params, kt, off=0):
    """{name: (c, word) terms} of the four eigenvalue forms at K-type kt,
    each with its scalar plus `off`, and of the three membership steps."""
    p, q = params.p, params.q
    out = {}
    for which in FORMS:
        scalar = params.scalar(which, kt) + off
        out[which] = gkmodule._minus_identity(closed_form(which, p, q), scalar)
    out.update(zip(STEPS, membership_steps(params)))
    return out


def _difference(values, order):
    """The finite difference of the given order of values[0 .. order]."""
    return sum((-1) ** (order - i) * comb(order, i) * values[i] for i in range(order + 1))


def _term_values(two_base, term, count):
    return [gkmodule._diagonal_value(two_base, [term], t) for t in range(count)]


def test_label_rule_rows_are_quadratic_in_a():
    # _placed fits each row's s from three values of a, so every row of the
    # table must be an integer quadratic in a, with den and a' - a constant
    for kind, k, n in itertools.product("ERLVD", range(4), range(2, 7)):
        rows = [gkmodule._label_rule(kind, a, k, n) for a in range(8)]
        for a, at in enumerate(rows):
            assert [(den, moved, a2 - a) for _, den, moved, a2 in at] == [
                (den, moved, a2) for _, den, moved, a2 in rows[0]
            ]
        for column in zip(*rows):
            s = [row[0] for row in column]
            assert all(_difference(s[i:], 3) == 0 for i in range(5)), (kind, k, n)
            assert (s[0] - 2 * s[1] + s[2]) % 2 == 0  # an integer leading coefficient


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_degree_bounds_hold_and_are_attained(p, q, m):
    # every word of every term list the checks build and every term of each
    # mixed-action diagonal, on every K-type with k, l <= 3 of both signs: the
    # difference of order bound + 1 of its cleared label polynomial vanishes,
    # and for some word the difference of order bound does not
    attained = set()
    for params in _families(p, q, m):
        for f in ktype_elements(params, 3, 3):
            for name, terms in _identities(params, f.kt).items():
                placed = gkmodule._placed(terms, params, f.kt)
                for two_base, diag in gkmodule._diagonals(placed).values():
                    for term in diag:
                        values = _term_values(two_base, term, term.bound + 2)
                        assert _difference(values, term.bound + 1) == 0, (f.kt, name, term)
                        if _difference(values, term.bound):
                            attained.add(name)
            placed = gkmodule._placed(gkmodule._ACTION, params, f.kt)
            placed += gkmodule._layer_terms(params, f.kt)
            for key, (two_base, terms) in gkmodule._diagonals(placed).items():
                top = max(term.bound for term in terms)
                for term in terms:
                    values = _term_values(two_base, term, term.bound + 2)
                    assert _difference(values, term.bound + 1) == 0, (f.kt, key, term)
                sums = [gkmodule._diagonal_value(two_base, terms, t) for t in range(top + 2)]
                assert _difference(sums, top + 1) == 0, (f.kt, key)
    assert attained >= {"g", "kill", "power"}


DIFFERENTIAL = list(dict.fromkeys([*DEFAULT_SWEEP, (4, 6, 1), (6, 6, 3), (3, 5, 1), (8, 8, 4)]))


@pytest.mark.parametrize("p,q,m", DIFFERENTIAL)
def test_whole_series_verdicts_match_the_depth_30_reference(p, q, m):
    # every eigenvalue form (with its scalar and with the scalar plus one),
    # every membership step and every (i, j) mixed-action identity, on
    # every K-type with k, l <= 4 of both signs: the whole-series verdict is
    # the verdict of the depth-D label path at D = 30
    verdicts = set()
    for params in _families(p, q, m):
        for f in ktype_elements(params, 4, 4):
            g = TruncatedTypical(f, 30)
            for off in (0, 1):
                for name, terms in _identities(params, f.kt, off).items():
                    want, _ = label_zero_test(terms, g)
                    got = gkmodule._vanishes(terms, params, f.kt)
                    assert got == want, (params.sign, f.kt, name, off)
                    verdicts.add(want)
            sums = action_labels_at(g)
            for i, j in itertools.product(range(1, p + 1), range(1, q + 1)):
                got = p_action_check(f, i, j)
                no_d = {"x": f._parts[i - 1][1], "y": f._parts[p + j - 1][1]}
                want = not any(
                    s for (kx, _, ky, _), s in sums.items()
                    if not (kx == "d" and no_d["x"] or ky == "d" and no_d["y"])
                )
                assert got == want, (params.sign, f.kt, i, j)
    assert verdicts == {True, False}


def _verdicts(p, q, m):
    """{(sign, k, l, mu, name): ok} of the four eigenvalue forms and the
    three membership steps on the elements with k, l <= 3."""
    out = {}
    for params in _families(p, q, m):
        for kt in ktype_enumeration(params, 3, 3):
            where = (params.sign, kt.k, kt.l, params.mu(kt))
            for which in FORMS:
                out[(*where, which)] = gkmodule.eigenvalue_check(which, params, kt).ok
            report = gkmodule.verify_membership(params, kt)
            for name, ok in zip(STEPS, (report.weight_ok, report.annihilated_ok, report.power_ok)):
                out[(*where, name)] = ok
    return out


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_mutations_fail_the_whole_series_identities(monkeypatch, p, q, m):
    # unmutated, every identity holds
    keys = _verdicts(p, q, m)
    assert all(keys.values())
    true_scalar = ModuleParams.scalar
    for off in (1, -1):
        with monkeypatch.context() as patch:
            patch.setattr(
                ModuleParams, "scalar",
                lambda self, which, kt=None: true_scalar(self, which, kt) + off,
            )
            fails = {key for key, ok in _verdicts(p, q, m).items() if not ok}
            assert fails >= {key for key in keys if key[-1] in FORMS}, off
    # the Laplacian rule with n - 1 fails every identity with an L factor
    # (all but the weight step), except Xi at p = q on the K-types with mu =
    # 0: there Xi is op - oq, which changes by 2 a_x - 2 a_y, and a_x = a_y
    with monkeypatch.context() as patch:
        patch.setattr(gkmodule, "_label_rule", wrong_label_rule("L_n_minus_1"))
        passing = {key for key, ok in _verdicts(p, q, m).items() if ok}
        assert passing == {
            key for key in keys
            if key[-1] == "weight" or key[-1] == "xi" and p == q and key[3] == 0
        }
    # kappa + 1 in the w ratio fails the killing step and the full Casimir
    # everywhere: each reads w_(t-1) / w_t
    real_ratio = gkmodule._w_ratio
    with monkeypatch.context() as patch:
        patch.setattr(
            gkmodule, "_w_ratio", lambda two, delta, j, t: real_ratio(two + 2, delta, j, t)
        )
        fails = {key for key, ok in _verdicts(p, q, m).items() if not ok}
        assert fails >= {key for key in keys if key[-1] in ("g", "kill")}
