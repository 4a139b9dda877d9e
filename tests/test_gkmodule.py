"""Truncated module vectors: membership, eigenvalues, the mixed action, the solver."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkverify.gkmodule import (
    DegenerateDenominatorError,
    KType,
    ModuleParams,
    PsiPoleError,
    TruncatedElement,
    TypicalElement,
    apply_operator,
    closed_apply,
    default_samples,
    default_solver_depth,
    eigenvalue_check,
    garfinkle_obstruction,
    ktype_elements,
    ktype_enumeration,
    p_action_check,
    product_elements,
    psi_series,
    typical_element,
    verify_membership,
)
from gkverify.poly import (
    ONE,
    MultiPoly,
    TruncationError,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    laplacian,
    rsq,
)
from gkverify.cli import DEFAULT_SWEEP
from gkverify.liealg import (
    STOCK_OPERATORS,
    Generator,
    closed_form,
    closed_operator,
    pi_generator,
)
from gkverify.weyl import WeylOperator, rsq_op


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


def test_window_rule_matches_double_integrality():
    params = ModuleParams(4, 6, 2, 1)
    for k in range(5):
        for l in range(5):
            kt = KType(k, l, 4, 6)
            d = kt.kappa_plus - kt.kappa_minus
            manual = (params.m + d) % 2 == 0 and abs(d) <= params.m
            assert params.allows(kt) == manual


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
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    with pytest.raises(TruncationError):
        typical_element(params, h1, h2, 2)  # base degree is 3


def test_membership_triple_spot():
    for p, q, m in [(2, 4, 0), (4, 4, 1)]:
        for sign in (1, -1):
            params = ModuleParams(p, q, m, sign)
            space = params.space
            D = 2 * m + 12
            for kt in ktype_enumeration(params, 2, 2):
                h1 = harmonic_basis(space, "x", kt.k)[0]
                h2 = harmonic_basis(space, "y", kt.l)[0]
                f = typical_element(params, h1, h2, D)
                report = verify_membership(f)
                assert report.ok, (p, q, m, sign, kt.k, kt.l)


def test_weight_is_signed_m():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = typical_element(params, h1, h2, 12)
    assert closed_apply("H", f).agrees_with(f.scale(1))
    params_minus = ModuleParams(4, 4, 1, -1)
    g = typical_element(params_minus, h1, h2, 12)
    assert closed_apply("H", g).agrees_with(g.scale(-1))


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


def test_eigenvalue_reports_spot():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    kt = KType(1, 0, 4, 4)
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = typical_element(params, h1, h2, 14)
    assert f.kt == kt
    for which in ("op", "oq", "g"):
        report = eigenvalue_check(which, f)
        assert report.ok, report.name
    xi_report = eigenvalue_check("xi", f)
    assert xi_report.ok and xi_report.scalar == 3


def test_apply_operator_validity_bookkeeping():
    params = ModuleParams(2, 4, 0, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = typical_element(params, h1, h2, 10)
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
    # The staged applier and the composed operator read the same closed-form
    # table; they must agree in expansion and in validity.  The operator is
    # applied uncapped, and the capped apply_operator must agree with it too.
    space = VariableSpace(p, q)
    for params in _families(p, q):
        kt = ktype_enumeration(params, 1, 1)[-1]
        h1 = harmonic_basis(space, "x", kt.k)[0]
        h2 = harmonic_basis(space, "y", kt.l)[0]
        f = typical_element(params, h1, h2, 8)
        for which in CLOSED_FORMS:
            op = closed_operator(space, which)
            one_pass = TruncatedElement(op.apply(f.expansion), f.validity + op.min_degree_shift())
            staged = closed_apply(which, f)
            where = (p, q, params.m, params.sign, which)
            assert staged.validity == one_pass.validity, where
            assert staged.expansion == one_pass.expansion, where
            capped = apply_operator(op, f)
            assert capped.validity == one_pass.validity, where
            assert capped.expansion == one_pass.expansion, where


_UNCAPPED_STAGES = {
    "E": euler,
    "L": laplacian,
    "R": lambda g, block: g.mul(rsq(g.space, block)),
}


def _uncapped_words(terms, f):
    """closed_apply's staged evaluation without the validity cap: every factor
    forms all of its output degrees, and each stage is truncated to its own
    validity afterwards."""
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
                f = typical_element(params, h1, h2, D)
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
    return TruncatedElement(MultiPoly.from_monomials(space, entries), validity)


@pytest.mark.parametrize(
    "which,reads",
    [
        # T = V: the Euler words ("E", one diagonal pass) and Rx Lx read f up to V
        ("op", {"E": 0, "Lx": 0}),
        # T = V - 2: Rx reads up to T - 2, Ly up to T + 2
        ("X-", {"Rx": -4, "Ly": 0}),
        # T = V - 4: the Euler words read up to T, Rx Ry up to T - 4, and
        # Ly, which two words share, up to T + 4 for Lx Ly
        ("g", {"E": -4, "Ry": -8, "Lx": -4, "Ly": 0}),
    ],
)
def test_closed_apply_reads_only_the_compared_degrees(monkeypatch, which, reads):
    # The first call of each factor reads f itself (the words sharing it are
    # applied depth first); its input degree, relative to f's validity V, is
    # the largest degree that the rest of some word carries to the output's
    # validity.  The diagonal pass of the Euler words reads f up to T, and
    # the degree of its output, on an f with every monomial, is that read.
    import gkverify.gkmodule as gkmodule

    f = _dense_element(VariableSpace(2, 4), 8)
    first = {}
    for kind, stage in list(gkmodule._STAGES.items()):

        def spy(g, block, kind=kind, stage=stage):
            first.setdefault(kind + block, g.degree() - f.validity)
            return stage(g, block)

        monkeypatch.setitem(gkmodule._STAGES, kind, spy)
    euler_pass = gkmodule._euler_pass

    def diagonal_spy(terms, g, top):
        out = euler_pass(terms, g, top)
        if g is f.expansion:
            first.setdefault("E", out.degree() - f.validity)
        return out

    monkeypatch.setattr(gkmodule, "_euler_pass", diagonal_spy)
    closed_apply(which, f)
    assert {k: first[k] for k in reads} == reads
    # no Euler word goes through the staged path
    assert not {"Ex", "Ey"} & first.keys()


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
    import gkverify.gkmodule as gkmodule

    monkeypatch.setattr(gkmodule, "closed_form", lambda which, p, q: _SYNTHETIC_FORM)
    space = VariableSpace(p, q)
    samples = [_dense_element(space, 5)]
    for params in _families(p, q):
        for kt in ktype_enumeration(params, 1, 1):
            h1 = harmonic_basis(space, "x", kt.k)[-1]
            h2 = harmonic_basis(space, "y", kt.l)[-1]
            samples += [typical_element(params, h1, h2, D) for D in (9, 10)]
    for f in samples:
        got = closed_apply("synthetic", f)
        want = _uncapped_words(_SYNTHETIC_FORM, f)
        assert got.validity == want.validity == f.validity - 2
        assert got.expansion == want.expansion


def test_closed_apply_refuses_a_negative_validity():
    params = ModuleParams(2, 4, 0, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = typical_element(params, h1, h2, 10)
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
            f = typical_element(params, h1, h2, D)
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
    f = typical_element(params, h1, h2, 9)
    assert verify_membership(f).ok


def test_p_action_spot():
    params = ModuleParams(4, 4, 1, 1)
    space = params.space
    h1 = harmonic_basis(space, "x", 1)[0]
    h2 = harmonic_basis(space, "y", 0)[0]
    f = typical_element(params, h1, h2, 12)
    for i in (1, 4):
        for j in (1, 4):
            assert p_action_check(f, i, j)
    params_minus = ModuleParams(4, 4, 1, -1)
    assert p_action_check(typical_element(params_minus, h1, h2, 12), 2, 3)


def test_typical_element_carries_its_family():
    params = ModuleParams(4, 4, 1, -1)
    space = params.space
    h1 = harmonic_basis(space, "x", 2)[1]
    h2 = harmonic_basis(space, "y", 1)[0]
    f = typical_element(params, h1, h2, 10)
    assert isinstance(f, TypicalElement)
    assert (f.params, f.kt, f.h1, f.h2) == (params, KType(2, 1, 4, 4), h1, h2)
    assert f.validity == 10


def test_sums_and_multiples_are_not_typical():
    params = ModuleParams(4, 4, 1, 1)
    f = next(ktype_elements(params, 1, 1, 10))
    for g in (f + f, f - f, f.scale(2), TruncatedElement(f.expansion, f.validity)):
        assert type(g) is TruncatedElement
        with pytest.raises(TypeError):
            eigenvalue_check("g", g)
        with pytest.raises(TypeError):
            p_action_check(g, 1, 1)
        with pytest.raises(TypeError):
            verify_membership(g)


def test_sample_plans_follow_the_enumeration_and_the_bases():
    params = ModuleParams(4, 6, 1, 1)
    space = params.space
    kts = ktype_enumeration(params, 2, 3)
    firsts = list(ktype_elements(params, 2, 3, 10))
    assert [f.kt for f in firsts] == kts
    for f in firsts:
        assert f.h1 == harmonic_basis(space, "x", f.kt.k)[0]
        assert f.h2 == harmonic_basis(space, "y", f.kt.l)[0]
    kt = kts[1]
    bx = harmonic_basis(space, "x", kt.k)
    by = harmonic_basis(space, "y", kt.l)
    products = list(product_elements(params, kt, 10))
    assert [(f.h1, f.h2) for f in products] == [(h1, h2) for h1 in bx for h2 in by]
    assert len(products) == kt.multiplicity
    assert all(f.kt == kt for f in products)


def _old_radial_layer(space, kappa, mu, radial_block, h1, h2, validity):
    base = (
        h1.block_homogeneous_degree("x")
        + h2.block_homogeneous_degree("y")
        + 2 * mu
    )
    if validity < base:
        return TruncatedElement(MultiPoly.zero(space), validity)
    series = psi_series(kappa, validity - base).shift_rho(radial_block, mu)
    radial = series.expand(space, validity)
    expansion = h1.mul(h2).mul(radial, max_degree=validity)
    return TruncatedElement(expansion, validity)


def _rebuilding_p_action_check(params, h1, h2, i, j, D):
    # The mixed-action check as it was before elements carried their K-type:
    # it re-derives (k, l) from the harmonics and rebuilds f for every (i, j).
    k = h1.block_homogeneous_degree("x")
    l = h2.block_homogeneous_degree("y")
    kt = KType(k, l, params.p, params.q)
    mu = params.mu(kt)
    f = typical_element(params, h1, h2, D)
    op = pi_generator(Generator(i, params.p + j, "M"), params.space).scale(-1)
    lhs = apply_operator(op, f)
    v = lhs.validity
    kp, km = kt.kappa_plus, kt.kappa_minus
    xvar, yvar = i - 1, params.p + j - 1
    dh1, dh2 = h1.diff(xvar), h2.diff(yvar)
    xh1, yh2 = h1.var_mul(xvar), h2.var_mul(yvar)
    if params.sign == 1:
        radial_block = "y"
        layers = [
            (dh1, False, dh2, False, km + mu - 1, km - 1, kp - 1, mu),
            (dh1, False, yh2, True, Fraction(mu), Fraction(1), kp - 1, mu - 1),
            (xh1, True, dh2, False, kp - km - mu, kp * (km - 1), kp + 1, mu + 1),
            (xh1, True, yh2, True, kp - mu - 1, kp, kp + 1, mu),
        ]
    else:
        radial_block = "x"
        layers = [
            (dh1, False, dh2, False, kp + mu - 1, kp - 1, km - 1, mu),
            (dh1, False, yh2, True, km - kp - mu, km * (kp - 1), km + 1, mu + 1),
            (xh1, True, dh2, False, Fraction(mu), Fraction(1), km - 1, mu - 1),
            (xh1, True, yh2, True, km - mu - 1, km, km + 1, mu),
        ]
    rhs = TruncatedElement(MultiPoly.zero(params.space), v)
    for fx, dag_x, fy, dag_y, num, den, kappa, layer_mu in layers:
        if fx.is_zero() or fy.is_zero():
            continue
        num, den = Fraction(num), Fraction(den)
        if den == 0:
            raise DegenerateDenominatorError(f"(k={k}, l={l})")
        if num == 0:
            continue
        poly_x = dagger(fx, "x") if dag_x else fx
        poly_y = dagger(fy, "y") if dag_y else fy
        layer = _old_radial_layer(
            params.space, Fraction(kappa), layer_mu, radial_block, poly_x, poly_y, v
        )
        rhs = rhs + layer.scale(num / den)
    return lhs.agrees_with(rhs)


def _outcome(check, *args):
    try:
        return check(*args)
    except DegenerateDenominatorError:
        return "DegenerateDenominatorError"


@pytest.mark.parametrize("p,q,m", [(2, 4, 0), (3, 3, 0), (4, 4, 1), (3, 5, 1)])
def test_p_action_check_matches_the_rebuilding_check(p, q, m):
    D = default_solver_depth(m)
    compared = 0
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        for f in ktype_elements(params, 2, 2, D):
            for i in range(1, p + 1):
                for j in range(1, q + 1):
                    new = _outcome(p_action_check, f, i, j)
                    old = _outcome(_rebuilding_p_action_check, params, f.h1, f.h2, i, j, D)
                    assert new == old, (sign, f.kt, i, j)
                    compared += 1
    assert compared > 0


def test_default_samples_structure():
    params = ModuleParams(4, 4, 1, 1)
    samples = list(default_samples(params, 10))
    kts = [(f.kt.k, f.kt.l) for f in samples]
    for pair in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert pair in kts
    assert len(samples) > 4  # the full product basis at one type is included


def test_obstruction_exists_at_m_zero():
    res = garfinkle_obstruction(ModuleParams(4, 4, 0, 1), 8)
    assert res.exists
    assert res.certificate is None
    assert res.xi_scalars  # the solver records the scalar targets it matched


def test_obstruction_infeasible_at_m_positive():
    res = garfinkle_obstruction(ModuleParams(4, 4, 1, 1), 10)
    assert not res.exists
    assert res.witness is None
    assert res.certificate  # an explicit inconsistent row is named
    assert res.n_rows > 0


def test_obstruction_both_signs_agree():
    for sign in (1, -1):
        assert garfinkle_obstruction(ModuleParams(4, 4, 0, sign), 8).exists
        assert not garfinkle_obstruction(ModuleParams(4, 4, 1, sign), 10).exists


@pytest.mark.parametrize("m", [0, 1])
def test_obstruction_images_are_the_truncated_full_images(monkeypatch, m):
    # The solver applies each pi(M_ij) capped at its comparison degree D - 2;
    # every capped image must be the full image truncated there.
    D = 11
    full_apply = WeylOperator.apply
    calls = []

    def spy(op, f, max_degree=None):
        calls.append((op, f, max_degree))
        return full_apply(op, f, max_degree=max_degree)

    monkeypatch.setattr(WeylOperator, "apply", spy)
    garfinkle_obstruction.cache_clear()
    garfinkle_obstruction(ModuleParams(4, 4, m, -1), D)
    garfinkle_obstruction.cache_clear()
    monkeypatch.undo()
    assert calls
    for op, f, cap in calls:
        assert cap == D - 2
        assert op.apply(f, max_degree=cap) == op.apply(f).truncate(D - 2)


def test_obstruction_result_is_frozen():
    # the memoized result is shared by every caller, so no caller may change it
    res = garfinkle_obstruction(ModuleParams(4, 4, 0, 1), 8)
    assert isinstance(res.xi_scalars, tuple)
    coeffs, _lam = res.witness
    assert isinstance(coeffs, tuple) and list(coeffs) == sorted(coeffs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.exists = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.xi_scalars = ()


def test_obstruction_call_forms_solve_once():
    params = ModuleParams(4, 4, 1, 1)
    garfinkle_obstruction.cache_clear()
    first = garfinkle_obstruction(params, 10)
    assert garfinkle_obstruction(params, 10) is first
    assert garfinkle_obstruction(params, D=10) is first
    assert garfinkle_obstruction(ModuleParams(4, 4, 1, 1), D=10) is first
    info = garfinkle_obstruction.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    garfinkle_obstruction(params, 12)
    assert garfinkle_obstruction.cache_info().misses == 2


# -- the radial series memo ----------------------------------------------------------


def _run_paction_suite():
    from gkverify.checks import execute_jobs, plan_jobs, selected_checks

    results = execute_jobs(plan_jobs(selected_checks(["paction"]), [(4, 6, 1)], 3, 3, None))
    assert all(r.status == "pass" for r in results), [r.to_dict() for r in results]


def test_paction_suite_expands_each_radial_series_once(monkeypatch):
    # 258 expansions before the memo, for 20 distinct (kappa, mu, block,
    # validity - deg h)
    import gkverify.gkmodule as gkmodule
    from gkverify.poly import RadialSeries

    calls = []
    expand = RadialSeries.expand

    def spy(series, space, max_degree=None):
        calls.append(max_degree)
        return expand(series, space, max_degree)

    monkeypatch.setattr(RadialSeries, "expand", spy)
    gkmodule._radial_expansion.cache_clear()
    _run_paction_suite()
    assert len(calls) == 20
    assert gkmodule._radial_expansion.cache_info().currsize == 20


def test_memoized_radial_layer_is_the_fresh_expansion(monkeypatch):
    import gkverify.gkmodule as gkmodule

    real = gkmodule._radial_layer
    seen = []

    def spy(kappa, mu, block, h, validity):
        out = real(kappa, mu, block, h, validity)
        base = h.degree() + 2 * mu
        if validity < base:
            fresh = MultiPoly.zero(h.space)
        else:
            series = psi_series(kappa, validity - base).shift_rho(block, mu)
            fresh = h.mul(series.expand(h.space, validity), max_degree=validity)
        assert out == fresh, (kappa, mu, block, validity)
        seen.append(validity)
        return out

    monkeypatch.setattr(gkmodule, "_radial_layer", spy)
    gkmodule._radial_expansion.cache_clear()
    _run_paction_suite()
    assert len(seen) > 200


def test_radial_layer_pole_raises_on_every_call():
    import gkverify.gkmodule as gkmodule

    h = harmonic_basis(VariableSpace(2, 4), "x", 1)[0]
    gkmodule._radial_expansion.cache_clear()
    for _ in range(3):
        with pytest.raises(PsiPoleError):
            gkmodule._radial_layer(Fraction(-1), 1, "y", h, 8)
        info = gkmodule._radial_expansion.cache_info()
        assert info.currsize == 0 and info.hits == 0
    # below its base degree a layer is zero without reaching the series
    assert gkmodule._radial_layer(Fraction(-1), 1, "y", h, 2).is_zero()
