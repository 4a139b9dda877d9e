"""Module vectors as whole series: membership, eigenvalues, the mixed action,
the solver, and the truncated reference they are compared with."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkverify.gkmodule import (
    DegenerateDenominatorError,
    DegenerateSampleError,
    KType,
    ModuleParams,
    PsiPoleError,
    default_samples,
    eigenvalue_check,
    garfinkle_obstruction,
    ktype_box,
    ktype_enumeration,
    p_action_check,
    psi_series,
    verify_membership,
)
from gkverify.poly import (
    ONE,
    MultiPoly,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    laplacian,
    rsq,
)
from gkverify.checks import REGISTRY, execute_jobs, plan_jobs
from gkverify.cli import DEFAULT_SWEEP
from gkverify.liealg import (
    STOCK_OPERATORS,
    Generator,
    closed_form,
    closed_operator,
    generators,
    pi_generator,
)
from gkverify.linalg import SparseRREF
from gkverify.weyl import WeylOperator, rsq_op
from helpers import from_monomials, shift_rho, wrong_label_rule
from truncated_reference import (
    TruncatedElement,
    TruncatedTypical,
    TruncationError,
    action_steps,
    apply_operator,
    capped_apply,
    closed_apply,
    default_depth,
    eigenvalue_at,
    first_samples,
    label_zero_test,
    p_action_at,
    truncate,
    truncated,
    truncated_elements,
)


def test_parameter_validation():
    ModuleParams(2, 4, 0, 1)
    ModuleParams(4, 6, 2, -1)
    with pytest.raises(ValueError):
        ModuleParams(1, 5, 0, 1)  # p too small
    with pytest.raises(ValueError):
        ModuleParams(3, 4, 0, 1)  # odd total
    with pytest.raises(ValueError):
        ModuleParams(2, 4, -1, 1)  # negative m
    with pytest.raises(ValueError):
        ModuleParams(2, 4, 1, 1)  # m + 3 exceeds half the total
    with pytest.raises(ValueError):
        ModuleParams(2, 4, 0, 2)  # bad sign


def test_ktype_arithmetic_frozen():
    kt = KType(1, 0, 4, 4)
    assert kt.kappa_plus == 3
    assert kt.kappa_minus == 2
    kt2 = KType(0, 1, 4, 4)
    assert kt2.kappa_plus == 2
    assert kt2.kappa_minus == 3


@pytest.mark.parametrize("k,l", [(-1, 0), (0, -1), (-1, -1)])
def test_negative_ktype_is_refused(k, l):
    with pytest.raises(ValueError):
        KType(k, l, 4, 6)


def test_ktype_enumeration_frozen():
    params = ModuleParams(4, 4, 1, 1)
    kts = [(kt.k, kt.l) for kt in ktype_enumeration(params, 2, 2)]
    assert kts == [(0, 1), (1, 0), (1, 2), (2, 1)]
    params0 = ModuleParams(4, 4, 0, 1)
    kts0 = [(kt.k, kt.l) for kt in ktype_enumeration(params0, 2, 2)]
    assert kts0 == [(0, 0), (1, 1), (2, 2)]


def test_radial_exponent_frozen():
    params = ModuleParams(4, 4, 1, 1)
    assert params.mu(KType(1, 0, 4, 4)) == 1
    assert params.mu(KType(0, 1, 4, 4)) == 0
    with pytest.raises(ValueError):
        params.mu(KType(0, 0, 4, 4))  # parity excludes it


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_minus_rule_is_the_plus_rule_with_the_blocks_swapped(p, q, m):
    # Exchanging the blocks maps H to -H and X+ to -X-, so the -1 family at
    # (p, q) is the +1 family at (q, p) with x, y and k, l exchanged.
    swap = {"x": "y", "y": "x"}
    minus, plus = ModuleParams(p, q, m, -1), ModuleParams(q, p, m, 1)
    assert minus.series_block == swap[plus.series_block]
    assert minus.weight_block == swap[plus.weight_block]
    assert minus.sl2_roles == plus.sl2_roles[::-1]
    kts = ktype_enumeration(minus, 3, 3)
    assert kts
    mirrored = sorted((kt.l, kt.k) for kt in kts)
    assert mirrored == [(kt.k, kt.l) for kt in ktype_enumeration(plus, 3, 3)]
    for kt in kts:
        mirror = KType(kt.l, kt.k, q, p)
        assert minus.weights(kt) == plus.weights(mirror)
        assert minus.mu(kt) == plus.mu(mirror)
        assert minus.layers(kt) == plus.layers(mirror)


@pytest.mark.parametrize("p,q,m", list(DEFAULT_SWEEP) + [(6, 6, 3), (8, 8, 4)])
def test_integer_window_and_mu_match_the_fraction_formula(p, q, m):
    # allows and mu decide on the int gap2 = 2k + p - 2l - q; here they are
    # restated on the Fraction weights: the window is double integrality,
    # kappa_plus - kappa_minus in -m, -m + 2, ..., m
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for k in range(7):
            for l in range(7):
                kt = KType(k, l, p, q)
                kp, km = Fraction(2 * k + p, 2), Fraction(2 * l + q, 2)
                d = kp - km
                allowed = d.denominator == 1 and abs(d) <= m and (m + d) % 2 == 0
                assert params.allows(kt) == allowed, (sign, k, l)
                if not allowed:
                    with pytest.raises(ValueError):
                        params.mu(kt)
                    continue
                s, o = (kp, km) if sign == 1 else (km, kp)
                mu = params.mu(kt)
                assert type(mu) is int and mu == (m + s - o) / 2, (sign, k, l)


def test_psi_series_recurrence():
    alpha = Fraction(5, 2)
    series = psi_series(alpha, 20)
    coeffs = {a: c for (a, b), c in series.coeffs.items() if a == b}
    assert set(series.coeffs) == {(j, j) for j in coeffs}
    assert coeffs[0] == ONE
    for j in range(max(coeffs)):
        assert coeffs[j + 1] == coeffs[j] * (Fraction(-1) / ((j + 1) * (alpha + j)))


def test_psi_series_frozen_second_coefficient():
    # c_1 = -1/alpha and c_2 = 1/(2 alpha (alpha+1))
    alpha = Fraction(3)
    series = psi_series(alpha, 8)
    assert series.coeffs[(1, 1)] == Fraction(-1, 3)
    assert series.coeffs[(2, 2)] == Fraction(1, 24)


def test_psi_series_pole_guard():
    for bad in (Fraction(0), Fraction(-1), Fraction(-5)):
        with pytest.raises(PsiPoleError):
            psi_series(bad, 4)
    psi_series(Fraction(1, 2), 4)  # non-integer values below zero are fine
    psi_series(Fraction(-3, 2), 4)


def test_psi_series_refuses_a_float_parameter():
    with pytest.raises(TypeError):
        psi_series(0.5, 4)
    assert psi_series(2, 4) == psi_series(Fraction(2), 4)


def test_typical_element_requires_depth():
    # the whole series takes no depth; the depth-D reference refuses a depth
    # below the base degree and keeps the terms up to it
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    with pytest.raises(TruncationError):
        TruncatedTypical(params, h1, h2, 2)  # base degree is 3
    assert TruncatedTypical(params, h1, h2, 6).terms == ((Fraction(1, 2), 0, 1),)
    assert TruncatedTypical(params, h1, h2, 7).terms == (
        (Fraction(1, 2), 0, 1), (Fraction(-1, 24), 1, 2)
    )


def test_membership_triple_spot():
    for p, q, m in [(2, 4, 0), (4, 4, 1)]:
        for sign in (1, -1):
            params = ModuleParams(p, q, m, sign)
            for kt in ktype_enumeration(params, 2, 2):
                report = verify_membership(params, kt)
                assert report.ok, (p, q, m, sign, kt.k, kt.l)


def test_weight_is_signed_m():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = TruncatedTypical(params, h1, h2, 12)
    assert closed_apply("H", f).agrees_with(truncated(f))
    params_minus = ModuleParams(4, 4, 1, -1)
    g = TruncatedTypical(params_minus, h1, h2, 12)
    assert closed_apply("H", g).agrees_with(truncated(g).scale(-1))


def test_casimir_scalars_frozen():
    # at (4,4,1): full Casimir m(m+2) - n^2/4 + n = -5; block values from kappa
    params = ModuleParams(4, 4, 1, 1)
    assert params.scalar("g") == Fraction(-5)
    kt = KType(1, 0, 4, 4)
    assert params.scalar("op", kt) == Fraction(3)
    assert params.scalar("oq", kt) == Fraction(0)


def test_xi_scalars_frozen():
    # at (4,4,1): kappa (3,2) gives 3, kappa (2,3) gives -3, zero never happens
    params = ModuleParams(4, 4, 1, 1)
    assert params.scalar("xi", KType(1, 0, 4, 4)) == Fraction(3)
    assert params.scalar("xi", KType(0, 1, 4, 4)) == Fraction(-3)
    assert params.scalar("xi", KType(1, 2, 4, 4)) == Fraction(-5)
    assert params.scalar("xi", KType(2, 1, 4, 4)) == Fraction(5)


def test_xi_scalar_vanishes_at_m_zero():
    params = ModuleParams(4, 6, 0, 1)
    for kt in ktype_enumeration(params, 3, 3):
        assert params.scalar("xi", kt) == 0


@pytest.mark.parametrize("p,q,m", [(2, 4, 0), (4, 4, 1), (5, 3, 1), (4, 6, 2)])
def test_xi_scalar_is_the_casimir_combination(p, q, m):
    # Xi's eigenvalue is written from its own formula; it must obey the same
    # op - oq - (p-q)/(p+q) g relation that builds the "xi" closed form row.
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for kt in ktype_enumeration(params, 3, 3):
            combo = params.scalar("op", kt) - params.scalar("oq", kt)
            combo -= Fraction(p - q, p + q) * params.scalar("g", kt)
            assert params.scalar("xi", kt) == combo
            assert params.scalar("g", kt) == params.scalar("g")
    with pytest.raises(ValueError):
        params.scalar("op")  # a block eigenvalue needs its K-type
    with pytest.raises(ValueError):
        params.scalar("H", kt)


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP + ((6, 6, 3), (8, 8, 4)))
def test_each_scalar_is_its_table_entry(p, q, m):
    # scalar computes one entry; the whole op/oq/xi/g table, written out
    # here, must agree at every allowed K-type with k, l <= 3, and a missing
    # name or K-type must raise the same error
    n, c = p + q, m * (m + 2)
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        allowed = [kt for kt in itertools.starmap(KType, itertools.product(
            range(4), range(4), [p], [q])) if params.allows(kt)]
        assert allowed
        for kt in allowed:
            kp, km = kt.kappa_plus, kt.kappa_minus
            table = {
                "g": Fraction(c) - Fraction(n * n, 4) + n,
                "op": (kp - 1) ** 2 - Fraction((p - 2) ** 2, 4),
                "oq": (km - 1) ** 2 - Fraction((q - 2) ** 2, 4),
                "xi": (kp - km) * (kp + km - 2) - Fraction(p - q, n) * c,
            }
            for which, value in table.items():
                got = params.scalar(which, kt)
                assert (type(got), got) == (Fraction, value)
            assert params.scalar("g") == table["g"]
            with pytest.raises(ValueError) as err:
                params.scalar("H", kt)
            assert str(err.value) == f"no eigenvalue is known for 'H' at K-type {kt}"
        for which in ("op", "oq", "xi", "H"):
            with pytest.raises(ValueError) as err:
                params.scalar(which)
            assert str(err.value) == f"no eigenvalue is known for {which!r} at K-type None"


def test_eigenvalue_reports_spot():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    kt = KType(1, 0, 4, 4)
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    assert TruncatedTypical(params, h1, h2, 3).kt == kt
    for which in ("op", "oq", "g"):
        report = eigenvalue_check(which, params, kt)
        assert report.ok, report.name
    xi_report = eigenvalue_check("xi", params, kt)
    assert xi_report.ok and xi_report.scalar == 3


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_zero_tests_match_the_comparisons_they_replaced(p, q, m):
    """eigenvalue_check and the weight step of verify_membership test
    closed_apply(which, f) - scalar f for the whole series; the comparison
    they replaced applied the closed form to a cut element and compared it
    with its multiple up to the smaller validity, and the depth-D label
    path gives that verdict at that validity."""
    D = default_depth(m, 6)
    checked = 0
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for g in truncated_elements(params, 3, 3, D):
            for which in ("op", "oq", "g", "xi"):
                applied = closed_apply(which, g)
                old_ok = applied.agrees_with(truncated(g).scale(params.scalar(which, g.kt)))
                assert eigenvalue_at(which, g) == (old_ok, applied.validity), which
                assert eigenvalue_check(which, params, g.kt).ok == old_ok, which
            old_weight_ok = closed_apply("H", g).agrees_with(truncated(g).scale(sign * m))
            assert verify_membership(params, g.kt).weight_ok == old_weight_ok
            checked += 1
    assert checked


def test_a_wrong_scalar_fails_the_zero_tests(monkeypatch):
    """A scalar or a weight off by one either way must fail.  Every other
    test feeds the zero tests true eigenvalues, so a zero test that tested
    nothing would pass them all."""
    import gkverify.gkmodule as gkmodule

    params = ModuleParams(4, 6, 1, 1)
    families = [dataclasses.replace(params, sign=sign) for sign in (1, -1)]
    samples = [(P, kt) for P in families for kt in ktype_enumeration(P, 2, 2)]
    assert len(samples) >= 4
    for P, kt in samples:
        assert verify_membership(P, kt).weight_ok
    shift, true_scalar = gkmodule._minus_identity, ModuleParams.scalar
    for off in (1, -1):
        # the weight target sign m, shifted by one: H - (sign m + off) must
        # not annihilate any sample
        with monkeypatch.context() as patch:
            patch.setattr(gkmodule, "_minus_identity", lambda terms, s: shift(terms, s + off))
            for P, kt in samples:
                assert not verify_membership(P, kt).weight_ok
        with monkeypatch.context() as patch:
            patch.setattr(
                ModuleParams, "scalar",
                lambda self, which, kt=None: true_scalar(self, which, kt) + off,
            )
            for P, kt in samples:
                for which in ("op", "oq", "g", "xi"):
                    assert not eigenvalue_check(which, P, kt).ok, (off, which)
            (result,) = execute_jobs(
                plan_jobs([REGISTRY["casimir.g_eigenvalue"]], [(4, 6, 1)], 3, 3)
            )
            assert result.status == "fail"


def test_apply_operator_validity_bookkeeping():
    params = ModuleParams(2, 4, 0, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = TruncatedTypical(params, h1, h2, 10)
    full = closed_apply("g", f)  # the closed form reaches fourth derivative order
    assert full.validity == f.validity - 4
    block = closed_apply("op", f)  # block form pairs each Laplacian with a square
    assert block.validity == f.validity
    d = WeylOperator.diff(space, 0)
    assert apply_operator(d, f).validity == f.validity - 1
    assert apply_operator(rsq_op(space, "y"), f).validity == f.validity + 2
    with pytest.raises(TruncationError):
        apply_operator(d.power(11), f)


CLOSED_FORMS = ("op", "oq", "g", "xi", "H", "X+", "X-")


def _families(p, q):
    for m in (0, 1):
        if m + 3 > (p + q) // 2:
            continue
        for sign in (1, -1):
            yield ModuleParams(p, q, m, sign)


@pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (4, 4), (4, 6)])
def test_closed_apply_matches_one_pass_operator(p, q):
    # closed_apply reads its validity from the closed-form words (_validity),
    # apply_operator from the composed operator's smallest degree shift; the
    # two must agree in expansion and in validity.
    space = VariableSpace(p, q)
    for params in _families(p, q):
        kt = ktype_enumeration(params, 1, 1)[-1]
        h1 = harmonic_basis(space, "x", kt.k)[0]
        h2 = harmonic_basis(space, "y", kt.l)[0]
        f = TruncatedTypical(params, h1, h2, 8)
        for which in CLOSED_FORMS:
            staged = closed_apply(which, f)
            one_pass = apply_operator(closed_operator(space, which), f)
            where = (p, q, params.m, params.sign, which)
            assert staged.validity == one_pass.validity, where
            assert staged.expansion == one_pass.expansion, where


_UNCAPPED_STAGES = {
    "E": euler,
    "L": laplacian,
    "R": lambda g, block: g.mul(rsq(g.space, block)),
}


def _uncapped_words(terms, f):
    """The (c, word) terms applied stage by stage, rightmost factor first,
    through the polynomial maps of _UNCAPPED_STAGES: every factor forms all
    of its output degrees, and each stage is truncated to its own validity
    afterwards."""
    f = truncated(f)
    total = None
    by_last = {}
    for c, word in terms:
        if word:
            by_last.setdefault(word[-1], []).append((c, word[:-1]))
        else:
            part = f if c == 1 else f.scale(c)
            total = part if total is None else total + part
    for (kind, block), rest in by_last.items():
        gain = STOCK_OPERATORS[kind](f.space, block).min_degree_shift()
        inner = TruncatedElement(_UNCAPPED_STAGES[kind](f.expansion, block), f.validity + gain)
        part = _uncapped_words(rest, inner)
        total = part if total is None else total + part
    return total


@pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (4, 4), (4, 6)])
def test_closed_apply_matches_uncapped_words(p, q):
    # Every K-type with k, l <= 2, at an even and an odd depth, so that the
    # cap lands on both parities of the series.
    space = VariableSpace(p, q)
    for params in _families(p, q):
        for kt in ktype_enumeration(params, 2, 2):
            h1 = harmonic_basis(space, "x", kt.k)[-1]
            h2 = harmonic_basis(space, "y", kt.l)[-1]
            for D in (9, 10):
                f = TruncatedTypical(params, h1, h2, D)
                for which in CLOSED_FORMS:
                    capped = closed_apply(which, f)
                    full = _uncapped_words(closed_form(which, p, q), f)
                    where = (p, q, params.m, params.sign, kt.k, kt.l, D, which)
                    assert capped.validity == full.validity, where
                    assert capped.expansion == full.expansion, where


def _dense_element(space, validity):
    """Every monomial of degree <= validity with coefficient 1, so each
    truncation shows its degree exactly."""
    exponents = []
    for d in range(validity + 1):
        for picks in itertools.combinations_with_replacement(range(space.nvars), d):
            exponents.append(tuple(picks.count(v) for v in range(space.nvars)))
    entries = [(exps, 1) for exps in sorted(exponents)]
    return TruncatedElement(from_monomials(space, entries), validity)


@pytest.mark.parametrize("which", CLOSED_FORMS)
def test_closed_apply_forms_nothing_above_its_validity(monkeypatch, which):
    # The composed operator is applied in parts, one per degree shift, and
    # no part forms a term above the result's validity.
    degrees = []
    real_apply = WeylOperator.apply

    def spy_apply(op, g):
        out = real_apply(op, g)
        degrees.append(out.degree())
        return out

    monkeypatch.setattr(WeylOperator, "apply", spy_apply)
    space = VariableSpace(2, 4)
    dense = _dense_element(space, 8)
    out = closed_apply(which, dense)
    assert out.validity == dense.validity + closed_operator(space, which).min_degree_shift()
    assert degrees and max(degrees) <= out.validity


# Euler-only, mixed ending in an Euler factor, mixed with an Euler rest, and
# coefficients with different denominators
_SYNTHETIC_FORM = tuple(
    (Fraction(c), tuple(w.split()))
    for c, w in (
        (Fraction(1, 3), "Ex Ey Ex"),
        (Fraction(-2, 5), "Rx Ex"),
        (7, "Ex Lx"),
        (Fraction(3, 2), "Ey"),
        (-4, ""),
    )
)


@pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (4, 6)])
def test_euler_pass_on_a_synthetic_closed_form(monkeypatch, p, q):
    # The validity is read from gkmodule's closed_form and the operator is
    # composed from liealg's; both must match the staged words.
    import gkverify.gkmodule as gkmodule
    import gkverify.liealg as liealg

    synthetic = lambda which, p, q: _SYNTHETIC_FORM  # noqa: E731
    monkeypatch.setattr(gkmodule, "closed_form", synthetic)
    monkeypatch.setattr(liealg, "closed_form", synthetic)
    space = VariableSpace(p, q)
    samples = [_dense_element(space, 5)]
    for params in _families(p, q):
        for kt in ktype_enumeration(params, 1, 1):
            h1 = harmonic_basis(space, "x", kt.k)[-1]
            h2 = harmonic_basis(space, "y", kt.l)[-1]
            samples += [TruncatedTypical(params, h1, h2, D) for D in (9, 10)]
    try:
        for f in samples:
            got = closed_apply("synthetic", f)
            want = _uncapped_words(_SYNTHETIC_FORM, f)
            assert got.validity == want.validity == f.validity - 2
            assert got.expansion == want.expansion
    finally:
        closed_operator.cache_clear()  # drop the operator built from the synthetic rows


def test_closed_apply_refuses_a_negative_validity():
    params = ModuleParams(2, 4, 0, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = TruncatedTypical(params, h1, h2, 10)
    low = TruncatedElement(f.expansion, 3)
    with pytest.raises(TruncationError):
        closed_apply("g", low)  # the Lx Ly word leaves validity -1
    assert closed_apply("g", TruncatedElement(f.expansion, 4)).validity == 0
    with pytest.raises(TruncationError):
        closed_apply("op", TruncatedElement(f.expansion, 1))  # Lx leaves -1 before Rx


def _xi_by_three_casimirs(f):
    # Xi applied as the three Casimirs it is made of, each closed form on its
    # own, then combined; the "xi" row merges them into one closed form.
    p, q = f.space.p, f.space.q
    out = closed_apply("op", f) - closed_apply("oq", f)
    return out - closed_apply("g", f).scale(Fraction(p - q, p + q))


@pytest.mark.parametrize("p,q,m", [(2, 4, 0), (3, 3, 0), (4, 4, 1), (4, 6, 2)])
def test_xi_row_matches_three_casimir_application(p, q, m):
    space = VariableSpace(p, q)
    D = 2 * m + 8
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for kt in ktype_enumeration(params, 2, 2):
            h1 = harmonic_basis(space, "x", kt.k)[0]
            h2 = harmonic_basis(space, "y", kt.l)[0]
            f = TruncatedTypical(params, h1, h2, D)
            merged = closed_apply("xi", f)
            separate = _xi_by_three_casimirs(f)
            assert merged.agrees_with(separate), (p, q, m, sign, kt)
            if p == q:  # no Lx Ly word is left, so the merged row keeps more degrees
                assert merged.validity >= separate.validity
            else:
                assert merged.validity == separate.validity


def test_truncated_element_agreement_window():
    space = VariableSpace(2, 4)
    one = harmonic_basis(space, "x", 0)[0]
    a = TruncatedElement(one, 4)
    b = TruncatedElement(one + one.scale(0), 2)
    assert a.agrees_with(b)


harmonic_coeffs = st.lists(
    st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=5),
    min_size=4,
    max_size=4,
)


@given(harmonic_coeffs)
@settings(max_examples=10, deadline=None)
def test_membership_holds_on_harmonic_combinations(cs):
    # any rational combination of degree-1 harmonics is again harmonic,
    # and the resulting vector must still pass the membership triple
    params = ModuleParams(2, 4, 0, 1)
    space = params.space
    basis = harmonic_basis(space, "y", 1)
    h2 = basis[0].scale(0)
    for c, h in zip(cs, basis):
        h2 = h2 + h.scale(c)
    if h2.is_zero():
        return
    h1 = harmonic_basis(space, "x", 2)[0]
    assert p_action_check(params, h1, h2) is None
    assert verify_membership(params, KType(2, 1, 2, 4)).ok


def test_p_action_spot():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    assert p_action_check(params, h1, h2) is None
    assert p_action_check(ModuleParams(4, 4, 1, -1), h1, h2) is None


def test_typical_element_carries_its_family():
    # the tests' cut typical element reads its K-type off the harmonics'
    # degrees, and its part of least degree is the leading term
    from gkverify.gkmodule import _frame

    params = ModuleParams(4, 4, 1, -1)
    space = params.space
    h1 = harmonic_basis(space, "x", 2)[1]
    h2 = harmonic_basis(space, "y", 1)[0]
    g = TruncatedTypical(params, h1, h2, 3)
    assert (g.params, g.kt, g.h1, g.h2) == (params, KType(2, 1, 4, 4), h1, h2)
    # sign -1 at (kappa_plus, kappa_minus) = (4, 3): the series parameter is
    # kappa_minus and mu = 0; at (3, 4) it is 4, and rho_x carries mu = 1
    assert _frame(params, g.kt) == (3, {"x": (2, 4, 0), "y": (1, 4, 0)})
    assert g.expansion == h1.mul(h2)
    h1, h2 = harmonic_basis(space, "x", 1)[0], harmonic_basis(space, "y", 2)[1]
    g = TruncatedTypical(params, h1, h2, 5)
    assert _frame(params, g.kt) == (4, {"x": (1, 4, 1), "y": (2, 4, 0)})
    # the leading term w_0 h1 h2 (r_x^2)^mu, with w_0 = 1/2^mu
    assert g.expansion == h1.mul(h2).mul(rsq(space, "x")).scale(Fraction(1, 2))
    assert g.expansion == truncate(TruncatedTypical(params, h1, h2, 10).expansion, 5)
    assert p_action_check(params, h1, h2) is None


def test_sums_and_multiples_are_not_typical():
    # p_action_check takes the harmonics of one sample and nothing else: a
    # cut element or a sum of them is refused, and so is an expansion,
    # which is not block-pure; the label identities take (params, kt) and
    # have no form that takes an element
    params = ModuleParams(4, 4, 1, 1)
    _, h1, h2 = next(first_samples(params, 1, 1))
    cut = TruncatedTypical(params, h1, h2, 10)
    t = truncated(cut)
    for g in (t + t, t - t, t.scale(2), t, cut):
        with pytest.raises(TypeError):
            p_action_check(params, g, h2)
        with pytest.raises(TypeError):
            p_action_check(params, h1, g)
        with pytest.raises(TypeError):
            p_action_check(g, 1, 1)
    with pytest.raises(ValueError, match="not homogeneous in block 'y'"):
        p_action_check(params, t.expansion, h2)
    with pytest.raises(ValueError, match="must involve only the x block"):
        p_action_check(params, h2, h2)
    with pytest.raises(TypeError):
        eigenvalue_check("g", cut)
    with pytest.raises(TypeError):
        verify_membership(cut)


def test_sample_plans_follow_the_enumeration_and_the_bases():
    import gkverify.gkmodule as gkmodule

    params = ModuleParams(4, 6, 1, 1)
    space = params.space
    kts = ktype_enumeration(params, 2, 3)
    firsts = list(first_samples(params, 2, 3))
    assert [kt for kt, _, _ in firsts] == kts
    for kt, h1, h2 in firsts:
        assert h1 == harmonic_basis(space, "x", kt.k)[0]
        assert h2 == harmonic_basis(space, "y", kt.l)[0]
    kt = kts[1]
    bx = harmonic_basis(space, "x", kt.k)
    by = harmonic_basis(space, "y", kt.l)
    products = list(gkmodule._product_harmonics(params, kt))
    assert [(h1, h2) for _, h1, h2 in products] == [(h1, h2) for h1 in bx for h2 in by]
    assert len(products) == kt.multiplicity
    assert all(got == kt for got, _, _ in products)


def _radial_series(kappa, exponent, block, space, reach, memo=None):
    """rho_block^exponent Psi_kappa expanded up to degree reach, or zero when
    reach is below its first term; `memo` keeps the expansions across calls."""
    if reach < 2 * exponent:
        return MultiPoly.zero(space)
    memo = {} if memo is None else memo
    key = (kappa, exponent, block, space, reach)
    if key not in memo:
        series = psi_series(kappa, reach - 2 * exponent)
        memo[key] = shift_rho(series, block, exponent).expand(space, reach)
    return memo[key]


def _sums_to_zero(products):
    """Whether the sum of c a b over the (c, a, b) products is zero, in one
    int dict over their common denominator."""
    den, out = math.lcm(*(c.denominator * a.den * b.den for c, a, b in products)), {}
    for c, a, b in products:
        w = c.numerator * (den // (c.denominator * a.den * b.den))
        for ka, ca in a._terms.items():
            for kb, cb in b._terms.items():
                out[ka + kb] = out.get(ka + kb, 0) + w * ca * cb
    return not any(out.values())


def _restated_rows(params, kt):
    """The mixed action's layer table written out per sign, apart from
    ModuleParams.layers, so that a patched table does not reach it: the
    series block and rows (x kind, y kind, num, den, kappa, exponent), a
    kind "d" differentiating its harmonic and "v" taking dagger(v h)."""
    kp, km, mu = kt.kappa_plus, kt.kappa_minus, params.mu(kt)
    if params.sign == 1:
        return "y", [
            ("d", "d", km + mu - 1, km - 1, kp - 1, mu),
            ("d", "v", Fraction(mu), Fraction(1), kp - 1, mu - 1),
            ("v", "d", kp - km - mu, kp * (km - 1), kp + 1, mu + 1),
            ("v", "v", kp - mu - 1, kp, kp + 1, mu),
        ]
    return "x", [
        ("d", "d", kp + mu - 1, kp - 1, km - 1, mu),
        ("d", "v", km - kp - mu, km * (kp - 1), km + 1, mu + 1),
        ("v", "d", Fraction(mu), Fraction(1), km - 1, mu - 1),
        ("v", "v", km - mu - 1, km, km + 1, mu),
    ]


def _table_rows(params, kt):
    """ModuleParams.layers (patched or not) in the form of _restated_rows."""
    rows = []
    for layer in params.layers(kt):
        kinds = {params.weight_block: layer.weight, params.series_block: layer.radial}
        rows.append((kinds["x"], kinds["y"], layer.num, layer.den, layer.kappa, layer.exponent))
    return params.series_block, rows


def _expanded_p_action_check(f, i, j, table=_table_rows, radial=None):
    """The mixed-action check summed over whole expansions: -pi(M_{i,p+j})
    applied to f's expansion, minus each layer num/den h_x h_y rho_s^e
    Psi_kappa with its series expanded to reach v = f.validity - 2, must
    vanish up to v, in one int dict.  The one reference for p_action_check:
    it restates both the check that rebuilt f for every (i, j) and the sum
    over expansions read before the separated form.  `table` gives the
    layers: ModuleParams.layers, or _restated_rows.  `radial` memoizes the
    series across calls."""
    params, kt = f.params, f.kt
    v = f.validity - 2
    if v < 0:
        raise TruncationError("validity became negative; increase D")
    space = params.space
    xi, yj = i - 1, params.p + j - 1
    op = pi_generator(Generator(i, params.p + j, "M"), space).scale(-1)
    products = [(ONE, capped_apply(op, f.expansion, v), MultiPoly.one(space))]
    block, rows = table(params, kt)
    for kx, ky, num, den, kappa, exponent in rows:
        hx = f.h1.diff(xi) if kx == "d" else dagger(f.h1.var_mul(xi), "x")
        hy = f.h2.diff(yj) if ky == "d" else dagger(f.h2.var_mul(yj), "y")
        if hx.is_zero() or hy.is_zero():
            continue
        if den == 0:
            raise DegenerateDenominatorError(
                f"coefficient denominator vanished at K-type (k={kt.k}, l={kt.l})"
            )
        if num:
            h = hx.mul(hy)
            series = _radial_series(kappa, exponent, block, space, v - h.degree(), radial)
            products.append((-Fraction(num) / den, h, series))
    return _sums_to_zero(products)


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_restated_layer_table_is_the_package_table(p, q, m):
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for kt in ktype_enumeration(params, 3, 3):
            block, rows = _restated_rows(params, kt)
            want_block, want_rows = _table_rows(params, kt)
            assert (block, sorted(rows)) == (want_block, sorted(want_rows)), (sign, kt)


def _checked(check, *args):
    try:
        return check(*args)
    except (DegenerateDenominatorError, TruncationError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_one_call_stops_at_the_first(g, outcomes):
    """p_action_check on g's sample against the outcomes of its step at
    every (i, j), in the call's order (i outer): it returns the first (i,
    j) whose step answers False, raises the error of the first that
    raises, and returns None when every step holds."""
    first = next(((ij, out) for ij, out in outcomes if out is not True), None)
    got = _checked(p_action_check, g.params, g.h1, g.h2)
    if first is None:
        assert got is None, g.kt
    else:
        ij, out = first
        assert got == (ij if out is False else out), (g.kt, ij)


@pytest.mark.parametrize("p,q,m", [(2, 4, 0), (3, 3, 0), (4, 4, 1), (3, 5, 1)])
def test_p_action_check_matches_the_rebuilding_check(p, q, m):
    # every (i, j) on every K-type with k, l <= 2 of both signs, cut at
    # depth 2m + 8 for the reference on its own restated layer table
    D = 2 * m + 8
    compared = 0
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        radial = {}
        for g in truncated_elements(params, 2, 2, D):
            step = action_steps(g)
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    want = _checked(_expanded_p_action_check, g, i, j, _restated_rows, radial)
                    assert _checked(step, i, j) == want, (sign, g.kt, i, j)
                    compared += 1
    assert compared > 0


def _mixed_action_failures():
    # the (g, i, j) at which the package's step answers False, over the
    # (4,6,1) samples with k, l <= 2 of both signs, each cut at depth 10 for
    # the reference; K-types with a vanishing layer denominator are
    # skipped, as paction.four_term skips them, and p_action_check stops at
    # each sample's first failure
    failures = []
    for sign in (1, -1):
        params = ModuleParams(4, 6, 1, sign)
        for g in truncated_elements(params, 2, 2, 10):
            if any(layer.den == 0 for layer in params.layers(g.kt)):
                continue
            step = action_steps(g)
            outcomes = [((i, j), step(i, j)) for i in range(1, 5) for j in range(1, 7)]
            _assert_one_call_stops_at_the_first(g, outcomes)
            failures += [(g, i, j) for (i, j), ok in outcomes if not ok]
    return failures


def _with_row(row, **changes):
    real = ModuleParams.layers

    def layers(self, kt):
        rows = list(real(self, kt))
        rows[row] = rows[row]._replace(**{k: fn(rows[row]) for k, fn in changes.items()})
        return tuple(rows)

    return layers


@pytest.mark.parametrize(
    "row,changes",
    [(r, {"num": lambda layer: -layer.num}) for r in range(4)]
    + [(0, {"kappa": lambda layer: layer.kappa + 1})]
    + [(r, {"num": lambda layer: layer.num + 1}) for r in range(4)],
    ids=["flip0", "flip1", "flip2", "flip3", "kappa0", "plus0", "plus1", "plus2", "plus3"],
)
def test_a_wrong_layer_fails_the_mixed_action(monkeypatch, row, changes):
    # The mutated table must fail some identity; the reference on its own
    # restated table still holds there, so the differential test against it
    # would catch the mutation too.
    assert not _mixed_action_failures()
    monkeypatch.setattr(ModuleParams, "layers", _with_row(row, **changes))
    failures = _mixed_action_failures()
    assert failures
    for g, i, j in failures[:3]:
        assert _expanded_p_action_check(g, i, j, _restated_rows)


def test_a_wrong_mixed_image_fails_the_mixed_action(monkeypatch):
    import gkverify.gkmodule as gkmodule

    def flipped(g, space):
        image = pi_generator(g, space)
        return image.scale(-1) if (g.i <= space.p) != (g.j <= space.p) else image

    monkeypatch.setattr(gkmodule, "pi_generator", flipped)
    assert _mixed_action_failures()


def test_default_samples_structure():
    params = ModuleParams(4, 4, 1, 1)
    samples = list(default_samples(params))
    kts = [(kt.k, kt.l) for kt, _, _ in samples]
    for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert pair in kts
    assert len(samples) > 4  # the full product basis at one type is included
    for kt, h1, h2 in samples:
        assert (h1.block_homogeneous_degree("x"), h2.block_homogeneous_degree("y")) == (kt.k, kt.l)


def test_obstruction_exists_at_m_zero():
    res = garfinkle_obstruction(ModuleParams(4, 4, 0, 1))
    assert res.exists
    assert res.certificate is None
    assert res.xi_scalars  # the solver records the scalar targets it matched


def test_obstruction_infeasible_at_m_positive():
    res = garfinkle_obstruction(ModuleParams(4, 4, 1, 1))
    assert not res.exists
    assert res.witness is None
    assert res.certificate  # an explicit inconsistent row is named
    assert res.n_rows > 0


def test_obstruction_both_signs_agree():
    for sign in (1, -1):
        assert garfinkle_obstruction(ModuleParams(4, 4, 0, sign)).exists
        assert not garfinkle_obstruction(ModuleParams(4, 4, 1, sign)).exists


@pytest.mark.parametrize("p,q,m", [*DEFAULT_SWEEP, (6, 6, 3), (2, 10, 1), (3, 5, 1)])
def test_obstruction_does_not_depend_on_the_sign(p, q, m):
    # the sample plan and the whole result, witness or certificate, agree
    plus, minus = ModuleParams(p, q, m, 1), ModuleParams(p, q, m, -1)
    assert list(default_samples(plus)) == list(default_samples(minus))
    assert garfinkle_obstruction(plus).to_dict() == garfinkle_obstruction(minus).to_dict()


def test_obstruction_result_is_frozen():
    # the memoized result is shared by every caller, so no caller may change it
    res = garfinkle_obstruction(ModuleParams(4, 4, 0, 1))
    assert isinstance(res.xi_scalars, tuple)
    coeffs, _lam = res.witness
    assert isinstance(coeffs, tuple) and list(coeffs) == sorted(coeffs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.exists = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.xi_scalars = ()


def test_obstruction_call_forms_solve_once():
    # params is positional-only, so each parameter set has one call form and
    # one entry
    params = ModuleParams(4, 4, 1, 1)
    garfinkle_obstruction.cache_clear()
    first = garfinkle_obstruction(params)
    assert garfinkle_obstruction(params) is first
    assert garfinkle_obstruction(ModuleParams(4, 4, 1, 1)) is first
    with pytest.raises(TypeError):
        garfinkle_obstruction(params=params)
    with pytest.raises(TypeError):
        garfinkle_obstruction(params, 10)
    # lru_cache counts the refused calls as misses, so count entries
    info = garfinkle_obstruction.cache_info()
    assert (info.currsize, info.hits) == (1, 2)
    garfinkle_obstruction(ModuleParams(4, 4, 1, -1))
    assert garfinkle_obstruction.cache_info().currsize == 2


def _eager_obstruction(params, D):
    """The expansion solver the harmonic system replaced, restated: every
    M generator (mixed ones included) imaged on every default sample's
    typical element, built at degree D, and compared at validity D - 2;
    rows fed sample by sample until the rank settles, then each candidate
    (Y, lambda) checked on every sample and a violated row fed back.
    Returns (exists, n_samples, xi_scalars, witness)."""
    space = params.space
    gens = generators(params.p, params.q, "M")
    lam_col = len(gens)
    rhs_col = lam_col + 1
    validity = D - 2
    prepared = []
    for kt, h1, h2 in default_samples(params):
        f = TruncatedTypical(params, h1, h2, D)
        fpoly = truncate(f.expansion, validity)
        images = [capped_apply(pi_generator(g, space), f.expansion, validity) for g in gens]
        keys = set(fpoly._terms)
        for img in images:
            keys.update(img._terms)
        lam_k = params.scalar("xi", kt)
        den = math.lcm(fpoly.den * lam_k.denominator, *(img.den for img in images))
        prepared.append((lam_k, fpoly, images, sorted(keys), den))
    xi_values = tuple(entry[0] for entry in prepared)
    if len(prepared) < 2 or (params.m >= 1 and len(set(xi_values)) < 2):
        raise DegenerateSampleError(f"{len(prepared)} samples")

    rref = SparseRREF(rhs_col=rhs_col)

    def build_row(s_idx, key):
        lam_k, fpoly, images, _, den = prepared[s_idx]
        row = {}
        for idx, img in enumerate(images):
            c = img._terms.get(key)
            if c:
                row[idx] = c * (den // img.den)
        fc = fpoly._terms.get(key)
        if fc:
            fc *= den // fpoly.den
            row[lam_col] = fc
            if lam_k:
                row[rhs_col] = -(fc // lam_k.denominator) * lam_k.numerator
        return row

    def infeasible():
        return False, len(prepared), xi_values, None

    for s_idx, entry in enumerate(prepared):
        stable = 0
        for key in entry[3]:
            status = rref.add_row(build_row(s_idx, key))[0]
            if status == "inconsistent":
                return infeasible()
            stable = 0 if status == "pivot" else stable + 1
            if stable >= 60:
                break

    while True:
        sol = rref.particular_solution()
        lam = sol.get(lam_col, Fraction(0))
        coeffs = {g: sol.get(idx, Fraction(0)) for idx, g in enumerate(gens)}
        violation = None
        for s_idx, (lam_k, fpoly, images, _, _) in enumerate(prepared):
            residual = fpoly.scale(lam - lam_k)
            for g, img in zip(gens, images):
                if coeffs[g]:
                    residual = residual + img.scale(coeffs[g])
            if not residual.is_zero():
                violation = (s_idx, min(residual._terms))
                break
        if violation is None:
            witness = ({f"({g.i},{g.j})": str(c) for g, c in coeffs.items() if c}, str(lam))
            return True, len(prepared), xi_values, witness
        status = rref.add_row(build_row(*violation))[0]
        if status == "inconsistent":
            return infeasible()
        assert status == "pivot"


def _valid_tuples(n_max):
    out = []
    for n in range(4, n_max + 1, 2):
        for p in range(2, n - 1):
            out.extend((p, n - p, m) for m in range(n // 2 - 2))
    return out


def test_ktype_box_counts_from_the_window():
    # the k <= k_max, l <= l_max box is kept when it holds a K-type; else a
    # box of the same size moves to the K-type of least k + l, which the
    # enumeration gives first
    for p, q, m in _valid_tuples(16):
        params = ModuleParams(p, q, m)
        grid = itertools.product(range(p + q + 1), repeat=2)
        window = [KType(k, l, p, q) for k, l in grid if params.allows(KType(k, l, p, q))]
        least = min(kt.k + kt.l for kt in window)
        for k_max, l_max in [(0, 0), (2, 2), (3, 1), (3, 3)]:
            ks, ls = ktype_box(params, k_max, l_max)
            kts = ktype_enumeration(params, k_max, l_max)
            assert kts == [kt for kt in window if kt.k in ks and kt.l in ls]
            assert (len(ks), len(ls)) == (k_max + 1, l_max + 1)
            if any(kt.k <= k_max and kt.l <= l_max for kt in window):
                assert (ks.start, ls.start) == (0, 0)
            else:
                corner = kts[0]
                assert (ks.start, ls.start, corner.k + corner.l) == (corner.k, corner.l, least)


def test_default_samples_hold_two_xi_scalars():
    # every valid tuple with p + q <= 14 and m >= 1, both signs: the plan
    # holds two distinct Xi eigenvalues; it adds a window K-type past the
    # k, l <= 2 box only where that box holds one, and then only the first
    # with another eigenvalue
    grown = set()
    for p, q, m in _valid_tuples(14):
        for sign in (1, -1) if m else ():
            params = ModuleParams(p, q, m, sign)
            kts = list(dict.fromkeys(kt for kt, _, _ in default_samples(params)))
            box = ktype_enumeration(params, 2, 2)
            xis = [params.scalar("xi", kt) for kt in kts]
            assert kts[:len(box)] == box and len(set(xis)) >= 2, (p, q, m, sign)
            if len(set(xis[:len(box)])) < 2:
                assert len(kts) == len(box) + 1, (p, q, m, sign)
                last = kts[-1]
                earlier = [
                    kt for kt in itertools.starmap(KType, itertools.product(
                        range(last.k + last.l + 1), range(last.k + last.l + 1), [p], [q]))
                    if params.allows(kt) and (kt.k + kt.l, kt.k) < (last.k + last.l, last.k)
                ]
                assert {params.scalar("xi", kt) for kt in earlier} == {xis[0]}
                grown.add((p, q, m))
            else:
                assert kts == box
    assert {(2, 8, 1), (8, 2, 1), (4, 10, 1), (2, 12, 3)} <= grown


DIFFERENTIAL_TUPLES = list(
    dict.fromkeys(
        list(DEFAULT_SWEEP)
        + _valid_tuples(10)
        + [(3, 5, 1), (6, 6, 2), (6, 6, 3), (4, 8, 3), (5, 7, 2)]
    )
)


def _obstruction_outcome(solve):
    try:
        return solve()
    except DegenerateSampleError:
        return "DegenerateSampleError"


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p,q,m", DIFFERENTIAL_TUPLES)
def test_obstruction_matches_the_eager_reference(p, q, m, sign):
    # the harmonic system on h1 h2 decides as the expansion solver did at
    # its depth 2m + 8, on the same samples with the same Xi targets, and
    # both refuse the same degenerate sample sets
    params = ModuleParams(p, q, m, sign)
    garfinkle_obstruction.cache_clear()

    def harmonic():
        res = garfinkle_obstruction(params)
        witness = res.to_dict()["witness"]
        if witness is not None:
            witness = (witness["generator_coefficients"], witness["lambda"])
        return res.exists, res.n_samples, res.xi_scalars, witness

    new = _obstruction_outcome(harmonic)
    assert new == _obstruction_outcome(lambda: _eager_obstruction(params, 2 * m + 8))
    if new != "DegenerateSampleError":
        assert new[0] == (m == 0)


# -- the mixed action on K-type labels ------------------------------------------------


def _run_paction_suite():
    from gkverify.checks import execute_jobs, plan_jobs, selected_checks

    results = execute_jobs(plan_jobs(selected_checks(["paction"]), [(4, 6, 1)], 3, 3))
    assert all(r.status == "pass" for r in results), [r.to_dict() for r in results]


@pytest.mark.parametrize("p,q,m", list(DEFAULT_SWEEP) + [(3, 5, 1), (6, 6, 3)])
def test_p_action_check_matches_the_expanded_sum(p, q, m):
    # every (i, j) on every K-type with k, l <= 2 of both signs, cut at the
    # depth the paction suite worked at for the expanded sum, where every
    # identity holds; the False verdicts are compared under a wrong layer
    # table below
    D = default_depth(m, 6)
    compared = 0
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        radial = {}
        for g in truncated_elements(params, 2, 2, D):
            step = action_steps(g)
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    want = _checked(_expanded_p_action_check, g, i, j, _table_rows, radial)
                    assert _checked(step, i, j) == want, (sign, g.kt, i, j)
                    compared += 1
            assert p_action_check(params, g.h1, g.h2) is None
    assert compared > 0


def test_p_action_check_matches_the_expanded_sum_at_small_depths():
    # (3,3,0) at D = 0..3: the depth-D label path of the reference raises
    # TruncationError below validity 2 as the expanded sum does, and gives
    # its exact verdicts where the identity has validity 0 or 1; the whole
    # series holds at every (i, j)
    outcomes = set()
    for D in range(4):
        for sign in (1, -1):
            params = ModuleParams(3, 3, 0, sign)
            for kt in ktype_enumeration(params, 2, 2):
                h1 = harmonic_basis(params.space, "x", kt.k)[0]
                h2 = harmonic_basis(params.space, "y", kt.l)[0]
                if D < kt.k + kt.l + 2 * params.mu(kt):
                    continue
                g = TruncatedTypical(params, h1, h2, D)
                step = action_steps(g)
                for i, j in itertools.product(range(1, 4), repeat=2):
                    want = _checked(_expanded_p_action_check, g, i, j)
                    assert _checked(p_action_at, g, i, j) == want, (D, sign, kt, i, j)
                    assert step(i, j)
                    outcomes.add(want)
                assert p_action_check(params, h1, h2) is None
    assert outcomes == {True, "TruncationError: validity became negative; increase D"}


@pytest.mark.parametrize("row", range(4))
def test_p_action_check_matches_the_expanded_sum_under_a_flipped_row(monkeypatch, row):
    # a sign-flipped layer row: the same verdict at every (i, j) of the
    # (4,4,1) elements, and some identity fails
    monkeypatch.setattr(ModuleParams, "layers", _with_row(row, num=lambda layer: -layer.num))
    verdicts = set()
    for sign in (1, -1):
        for g in truncated_elements(ModuleParams(4, 4, 1, sign), 2, 2, 12):
            step, outcomes = action_steps(g), []
            for i, j in itertools.product(range(1, 5), repeat=2):
                want = _checked(_expanded_p_action_check, g, i, j)
                assert _checked(step, i, j) == want, (sign, g.kt, i, j)
                outcomes.append(((i, j), want))
                verdicts.add(want)
            _assert_one_call_stops_at_the_first(g, outcomes)
    assert False in verdicts


@pytest.mark.parametrize("row", range(4))
def test_p_action_check_matches_the_expanded_sum_under_a_zero_denominator(monkeypatch, row):
    # a patched zero den raises DegenerateDenominatorError at exactly the
    # (i, j) where both moved harmonics of that row survive, and elsewhere
    # the verdict is the expanded sum's
    monkeypatch.setattr(ModuleParams, "layers", _with_row(row, den=lambda layer: Fraction(0)))
    outcomes = set()
    for sign in (1, -1):
        params = ModuleParams(4, 4, 1, sign)
        for g in truncated_elements(params, 2, 2, 12):
            step, ordered = action_steps(g), []
            for i, j in itertools.product(range(1, 5), repeat=2):
                want = _checked(_expanded_p_action_check, g, i, j)
                assert _checked(step, i, j) == want, (sign, g.kt, i, j)
                ordered.append(((i, j), want))
                outcomes.add(want if isinstance(want, bool) else want.split(":")[0])
            _assert_one_call_stops_at_the_first(g, ordered)
    assert "DegenerateDenominatorError" in outcomes
    # rows 0 to 2 differentiate a harmonic, and skip the (i, j) where it vanishes
    assert (True in outcomes) == (row < 3)


def test_paction_suite_expands_no_radial_series(monkeypatch):
    # each layer's series is read term by term from psi_series, never
    # expanded as a whole
    from gkverify.poly import RadialSeries

    calls = []
    expand = RadialSeries.expand
    monkeypatch.setattr(
        RadialSeries, "expand", lambda *args, **kw: calls.append(args) or expand(*args, **kw)
    )
    _run_paction_suite()
    assert calls == []


def test_paction_four_term_work_counts(monkeypatch):
    # At (4,6,1): no WeylOperator.apply; one p_action_check call per sample
    # of the plan, each placing one diagonal table and running one Fischer
    # check per variable (each with one dagger); one layer table per
    # (params, K-type).  The call keeps nothing: a second run does the same
    # work again, and no module-level table holds a polynomial.
    from collections import Counter

    import gkverify.checks as checks
    import gkverify.gkmodule as gkmodule

    applies = []
    real_apply = WeylOperator.apply

    def count_apply(self, *args, **kwargs):
        applies.append(self)
        return real_apply(self, *args, **kwargs)

    calls, tables, fischer, daggers = [], [], [], []
    real_check, real_placed, real_fischer, real_dagger = (
        checks.p_action_check, gkmodule._placed, gkmodule._fischer, gkmodule.dagger
    )
    monkeypatch.setattr(WeylOperator, "apply", count_apply)
    monkeypatch.setattr(
        checks, "p_action_check",
        lambda params, h1, h2: calls.append((params, h1, h2)) or real_check(params, h1, h2),
    )
    monkeypatch.setattr(
        gkmodule, "_placed",
        lambda terms, params, kt: tables.append((params, kt)) or real_placed(terms, params, kt),
    )
    monkeypatch.setattr(
        gkmodule, "_fischer",
        lambda params, kt, h, var: fischer.append((params, kt, var))
        or real_fischer(params, kt, h, var),
    )
    monkeypatch.setattr(
        gkmodule, "dagger", lambda P, block: daggers.append(block) or real_dagger(P, block)
    )
    p, q = 4, 6
    samples = [
        (params, kt, h1, h2)
        for params in (ModuleParams(p, q, 1, 1), ModuleParams(p, q, 1, -1))
        for kt, h1, h2 in first_samples(params, 2, 2)
    ]
    ModuleParams.layers.cache_clear()
    for run in (1, 2):
        (result,) = execute_jobs(plan_jobs([REGISTRY["paction.four_term"]], [(p, q, 1)], 3, 3))
        assert (result.status, result.instances) == ("pass", p * q * len(samples))
        assert len(calls) == run * len(samples) == run * 8
        assert calls == run * [(params, h1, h2) for params, _, h1, h2 in samples]
        assert tables == run * [(params, kt) for params, kt, _, _ in samples]
        assert len(fischer) == run * (p + q) * len(samples) == run * 80
        assert Counter(fischer) == Counter(
            (params, kt, var) for params, kt, _, _ in samples for var in range(p + q)
            for _ in range(run)
        )
        assert len(daggers) == len(fischer)
        assert applies == []
        info = ModuleParams.layers.cache_info()
        assert info.misses == info.currsize == len(samples)
    for value in vars(gkmodule).values():
        if isinstance(value, dict):
            assert not any(isinstance(v, (MultiPoly, tuple, list)) for v in value.values())


@pytest.mark.parametrize(
    "D,error",
    [
        (0, "TruncationError: validity became negative; increase D"),
        (1, "TruncationError: validity became negative; increase D"),
        (2, "TruncationError: D=2 is below the base degree 4"),
        (3, "TruncationError: D=3 is below the base degree 4"),
    ],
)
def test_paction_four_term_small_depth_errors(D, error):
    # at (3,3,0) the depth-D path that paction.four_term replaced could not
    # decide below its depth 4 and raised as it did then; the whole-series
    # check takes no depth and passes
    def reference():
        for sign in (1, -1):
            for g in truncated_elements(ModuleParams(3, 3, 0, sign), 2, 2, D):
                for i, j in itertools.product(range(1, 4), repeat=2):
                    p_action_at(g, i, j)

    with pytest.raises(TruncationError) as raised:
        reference()
    assert f"TruncationError: {raised.value}" == error
    (result,) = execute_jobs(plan_jobs([REGISTRY["paction.four_term"]], [(3, 3, 0)], 3, 3))
    assert (result.status, result.instances) == ("pass", 54)


def test_radial_layer_pole_raises_on_every_call(monkeypatch):
    # a layer series parameter at a pole raises PsiPoleError on every call,
    # and the step keeps nothing in its memo
    import gkverify.gkmodule as gkmodule

    params = ModuleParams(4, 6, 1, 1)
    kt, h1, h2 = next(first_samples(params, 1, 1))
    monkeypatch.setattr(ModuleParams, "layers", _with_row(3, kappa=lambda layer: Fraction(-1)))
    memo = {}
    for _ in range(3):
        with pytest.raises(PsiPoleError):
            p_action_check(params, h1, h2)
        with pytest.raises(PsiPoleError):
            gkmodule._action_at(params, kt, h1, h2, 1, 1, memo)
        assert memo == {}


def test_layer_parameter_off_kappa_by_a_fraction_is_refused(monkeypatch):
    # a layer series whose parameter is not kappa plus an integer has no
    # polynomial ratio to the sample's series, so the diagonal cannot be
    # decided
    import gkverify.gkmodule as gkmodule

    params = ModuleParams(4, 6, 1, 1)
    kt, h1, h2 = next(first_samples(params, 1, 1))
    half = _with_row(3, kappa=lambda layer: layer.kappa + Fraction(1, 2))
    monkeypatch.setattr(ModuleParams, "layers", half)
    with pytest.raises(ValueError, match="is not kappa = .* plus an integer"):
        p_action_check(params, h1, h2)
    memo = {}
    with pytest.raises(ValueError, match="is not kappa = .* plus an integer"):
        gkmodule._action_at(params, kt, h1, h2, 1, 1, memo)
    assert memo == {}


# -- the separated form and the label zero test ---------------------------------------


@pytest.mark.parametrize("p,q,m", DEFAULT_SWEEP)
def test_separated_expansion_is_the_radial_layer(p, q, m):
    # the reference's cut elements against the radial layer that built
    # typical elements before the separated form (h1 h2 times the expanded
    # radial series, capped at D), every K-type with k, l <= 3, both signs,
    # at an even and an odd depth; the package's leading term is their part
    # of least degree
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for D in (default_depth(m, 6), default_depth(m, 6) + 1):
            for f in truncated_elements(params, 3, 3, D):
                mu = params.mu(f.kt)
                h = f.h1.mul(f.h2)
                kappa, block = params.weights(f.kt)[0], params.series_block
                want = h.mul(_radial_series(kappa, mu, block, f.space, D - h.degree()))
                assert f.expansion == want, (p, q, m, sign, f.kt, D)
                base = f.kt.k + f.kt.l + 2 * mu
                assert TruncatedTypical(params, f.h1, f.h2, base).expansion == truncate(want, base)
                # terms of different j never collide: each is one bidegree
                bidegrees = [(a.degree(), b.degree()) for _, a, b in f.separated]
                assert len(set(bidegrees)) == len(bidegrees)
                assert f.kt.k + f.kt.l + 2 * mu + 4 * (len(bidegrees) - 1) <= D


def _applied_power(which, n, f):
    # the closed form `which` applied n times, one closed_apply at a time
    g = truncated(f)
    for _ in range(n):
        g = closed_apply(which, g)
    return g


@pytest.mark.parametrize("p,q,m", list(DEFAULT_SWEEP) + [(3, 5, 1)])
def test_zero_test_matches_the_staged_pass(p, q, m):
    """The depth-D label zero test against the staged words of the
    expansion, on every closed form with its own scalar, one off by one and
    none, and on the (m+1)-fold lowering: the same verdict at the same
    validity, and the whole-series zero test gives that verdict too."""
    import gkverify.gkmodule as gkmodule

    D = default_depth(m, 6)
    verdicts = set()
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        killer, lower = params.sl2_roles
        for f in truncated_elements(params, 3, 3, D):
            for which in ("op", "oq", "g", "xi", "H", "X+", "X-"):
                terms = closed_form(which, p, q)
                staged = _uncapped_words(terms, f)
                if which == "H":
                    scalars = [sign * m, sign * m + 1, 0]
                elif which in ("X+", "X-"):
                    scalars = [0, 1]
                else:
                    true = params.scalar(which, f.kt)
                    scalars = [true, true + 1, 0]
                for s in scalars:
                    want = ((staged - truncated(f).scale(s)).is_zero(), staged.validity)
                    shifted = gkmodule._minus_identity(terms, s)
                    assert label_zero_test(shifted, f) == want, (sign, f.kt, which, s)
                    got = gkmodule._vanishes(shifted, params, f.kt)
                    assert got == want[0], (sign, f.kt, which, s)
                    verdicts.add(want[0])
                if which == killer:
                    assert staged.is_zero()
            power = _applied_power(lower, m + 1, f)
            terms = gkmodule._power(closed_form(lower, p, q), m + 1)
            got = label_zero_test(terms, f)
            assert got == (power.is_zero(), power.validity) == (True, D - 2 * (m + 1))
            assert gkmodule._vanishes(terms, params, f.kt)
            # one step short of the power does not annihilate
            short = _applied_power(lower, m, f)
            terms = gkmodule._power(closed_form(lower, p, q), m)
            assert label_zero_test(terms, f) == (short.is_zero(), short.validity)
            assert not short.is_zero() and not gkmodule._vanishes(terms, params, f.kt)
    assert verdicts == {True, False}


def test_power_is_the_binomial_word_list():
    import gkverify.gkmodule as gkmodule

    half = Fraction(1, 2)
    lower = closed_form("X-", 4, 6)
    for n in range(4):
        want = {
            ("Rx",) * i + ("Ly",) * (n - i): Fraction(math.comb(n, i)) * half**n
            for i in range(n + 1)
        }
        assert dict((w, c) for c, w in gkmodule._power(lower, n)) == want
    # merged words that cancel are dropped: (Rx - Rx)^2 = 0
    assert gkmodule._power(((ONE, ("Rx",)), (-ONE, ("Rx",))), 2) == ()


def _module_fails():
    # whether some eigenvalue or membership check fails at (4,6,1) on the
    # K-types with k, l <= 2 of both signs (all pass unmutated, as
    # test_label_checks_build_no_element asserts)
    for sign in (1, -1):
        params = ModuleParams(4, 6, 1, sign)
        for kt in ktype_enumeration(params, 2, 2):
            forms = ("op", "oq", "g", "xi")
            if not all(eigenvalue_check(which, params, kt).ok for which in forms):
                return True
            if not verify_membership(params, kt).ok:
                return True
    return False


def _patched_form(target, index, change):
    # closed_form with the word at `index` of row `target` changed
    def form(which, p, q):
        terms = list(closed_form(which, p, q))
        if which == target:
            terms[index] = change(*terms[index])
        return tuple(terms)

    return form


_FLIPS = [(w, i) for w in CLOSED_FORMS for i in range(len(closed_form(w, 4, 6)))]


@pytest.mark.parametrize("which,index", _FLIPS, ids=[f"{w}{i}" for w, i in _FLIPS])
def test_a_flipped_closed_form_coefficient_fails(monkeypatch, which, index):
    import gkverify.gkmodule as gkmodule

    flip = _patched_form(which, index, lambda c, word: (-c, word))
    monkeypatch.setattr(gkmodule, "closed_form", flip)
    assert _module_fails()


_CROSS = [
    (w, i) for w in ("g", "xi")
    for i, (_, word) in enumerate(closed_form(w, 4, 6)) if len({b for _, b in word}) == 2
]


@pytest.mark.parametrize("which,index", _CROSS, ids=[f"{w}{i}" for w, i in _CROSS])
def test_a_cross_block_factor_on_the_wrong_block_fails(monkeypatch, which, index):
    # the first factor of a word with both blocks acts on the other block
    import gkverify.gkmodule as gkmodule

    swap = {"x": "y", "y": "x"}
    moved = _patched_form(
        which, index, lambda c, word: (c, (word[0][0] + swap[word[0][1]],) + word[1:])
    )
    monkeypatch.setattr(gkmodule, "closed_form", moved)
    assert _module_fails()


def _series_verdict():
    (r,) = execute_jobs(plan_jobs([REGISTRY["module.series_recurrence"]], [(4, 6, 1)], 2, 2))
    return r.status, r.instances, r.detail


def test_a_wrong_psi_parameter_fails(monkeypatch):
    # kappa + 1 in the w ratio of the series: the identities fail, and so
    # does the check that ties the ratio to psi_series
    import gkverify.gkmodule as gkmodule

    real = gkmodule._w_ratio
    assert not _module_fails()
    passing = _series_verdict()
    assert passing[0] == "pass"
    monkeypatch.setattr(gkmodule, "_w_ratio", lambda two, delta, j, t: real(two + 2, delta, j, t))
    assert _module_fails()
    status, instances, detail = _series_verdict()
    assert (status, instances) == ("fail", 1)
    assert detail["w_ratio_fails_at"] == [0, 0, 1]


@pytest.mark.parametrize("mutant", ["L_n_minus_1", "E_without_2a"])
def test_a_wrong_label_rule_fails_the_scalar_checks(monkeypatch, mutant):
    # n - 1 in the Laplacian row of _label_rule, or the Euler row without 2a
    import gkverify.gkmodule as gkmodule

    assert not _module_fails()
    monkeypatch.setattr(gkmodule, "_label_rule", wrong_label_rule(mutant))
    assert _module_fails()


def _four_term_verdict():
    # paction.four_term at (4,6,1): status, instances and the failing K-type
    (r,) = execute_jobs(plan_jobs([REGISTRY["paction.four_term"]], [(4, 6, 1)], 3, 3))
    return r.status, r.instances, r.detail.get("failed_ktype")


@pytest.mark.parametrize(
    "mutant", ["c_over_2k_plus_n_minus_1", "D_without_2ac", "V_without_c_row"]
)
def test_a_wrong_coordinate_row_fails_the_mixed_action(monkeypatch, mutant):
    # c = 1/(2k + n - 1) in the V and D rows of _label_rule, the D row of
    # d_v h without its 2a c part, or v h without its c row: the Fischer
    # check sees the two that change the V rows, and with that check forced
    # to hold the label sums see all three; paction.four_term fails at its
    # 25th instance, the first at K-type (1,1)
    import gkverify.gkmodule as gkmodule

    real_fischer = gkmodule._fischer
    assert not _mixed_action_failures()
    assert _four_term_verdict() == ("pass", 192, None)
    monkeypatch.setattr(gkmodule, "_label_rule", wrong_label_rule(mutant))
    params = ModuleParams(4, 6, 1, 1)
    kt, h1, _ = next(sample for sample in first_samples(params, 2, 2) if sample[0].k)
    lemmas = [gkmodule._fischer(params, kt, h1, var)[0] for var in range(4)]
    assert all(lemmas) == (mutant == "D_without_2ac")
    assert _mixed_action_failures()
    assert _four_term_verdict() == ("fail", 25, [1, 1])
    monkeypatch.setattr(
        gkmodule, "_fischer", lambda *args: (True, real_fischer(*args)[1])
    )
    assert _mixed_action_failures()
    assert _four_term_verdict() == ("fail", 25, [1, 1])


def test_label_checks_build_no_element(monkeypatch):
    """The label identities read (params, kt) alone.  At (4,6,1) the four
    casimir.*_eigenvalue checks and module.membership call none of
    _require_block_harmonic (the test of a sample's harmonics),
    harmonic_basis, laplacian and MultiPoly.mul, and the Casimir step of
    symsq.theorem_ingredients tests no harmonic.  p_action_check still
    refuses every (k, l) outside the window with k, l <= 3.  Every
    Laplacian p_action_check applies reads a polynomial in one block
    only."""
    import sys

    import gkverify.gkmodule as gkmodule
    from gkverify.symsq import theorem_ingredients

    calls = {name: [] for name in ("_require_block_harmonic", "harmonic_basis", "laplacian")}
    real = {name: getattr(gkmodule, name) for name in calls}

    def spy(name):
        return lambda *args: calls[name].append(args) or real[name](*args)

    spies = {name: spy(name) for name in calls}
    for module in [m for key, m in sys.modules.items() if key.startswith("gkverify")]:
        for name in calls:
            if getattr(module, name, None) is real[name]:
                monkeypatch.setattr(module, name, spies[name])
    products, real_mul = [], MultiPoly.mul
    monkeypatch.setattr(MultiPoly, "mul", lambda a, b: products.append(a) or real_mul(a, b))
    names = [f"casimir.{w}_eigenvalue" for w in ("op", "oq", "g", "xi")] + ["module.membership"]
    results = execute_jobs(plan_jobs([REGISTRY[n] for n in names], [(4, 6, 1)], 3, 3))
    assert [(r.status, r.instances) for r in results] == [("pass", 12)] * 5
    assert calls == {name: [] for name in calls} and products == []
    for sign in (1, -1):
        params = ModuleParams(4, 6, 1, sign)
        calls["_require_block_harmonic"].clear()
        assert theorem_ingredients(params).casimir_step_ok
        assert calls["_require_block_harmonic"] == []
        refused = 0
        for k, l in itertools.product(range(4), repeat=2):
            if params.allows(KType(k, l, 4, 6)):
                continue
            h1 = harmonic_basis(params.space, "x", k)[0]
            h2 = harmonic_basis(params.space, "y", l)[0]
            with pytest.raises(ValueError):
                p_action_check(params, h1, h2)
            refused += 1
        assert refused == 10
    calls["laplacian"].clear()
    for sign in (1, -1):
        params = ModuleParams(4, 6, 1, sign)
        for _, h1, h2 in first_samples(params, 3, 3):
            assert p_action_check(params, h1, h2) is None
    assert calls["laplacian"]
    for g, block in calls["laplacian"]:
        other = {"x": "y", "y": "x"}[block]
        assert g.block_homogeneous_degree(other) == 0
