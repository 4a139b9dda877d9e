"""Integer-numerator kernels against reference kernels over ``Fraction``.

Every ``MultiPoly`` and ``WeylOperator`` kernel works on int numerators over
one shared denominator.  The reference kernels below are the earlier
implementations, which keep one ``Fraction`` per term; each test runs a
kernel and its reference on the same input and compares the results as
rational coefficients.  Every result must also be in canonical form: int
numerators, a positive denominator sharing no factor with all of them, and
denominator 1 for zero.
"""

import itertools
import operator
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkverify.liealg import generators, pi_generator
from truncated_reference import truncate
from gkverify.poly import (
    MAX_EXP,
    MultiPoly,
    RadialSeries,
    VariableSpace,
    _block_monomial_keys,
    dagger,
    euler,
    laplacian,
    rho,
)
from gkverify.weyl import WeylOperator, falling
from helpers import from_monomials

SPACE = VariableSpace(2, 3)
NV = SPACE.nvars

exponents = st.lists(st.integers(0, 4), min_size=NV, max_size=NV).map(tuple)
coeffs = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=12)
polys = st.lists(st.tuples(exponents, coeffs), max_size=6).map(
    lambda entries: from_monomials(SPACE, entries)
)
scalars = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=9)
blocks = st.sampled_from(["x", "y"])
variables = st.integers(0, NV - 1)


# -- reference kernels: one Fraction per term ----------------------------------


def _fr(f):
    return {k: Fraction(c, f.den) for k, c in f._terms.items()}


def _acc(out, k, c):
    a = out.get(k, 0) + c
    if a:
        out[k] = a
    else:
        out.pop(k, None)


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        _acc(out, k, c)
    return out


def ref_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def ref_mul(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2 in sorted(b):
            _acc(out, k1 + k2, c1 * b[k2])
    return out


def ref_truncate(a, degree):
    return {k: c for k, c in a.items() if k >> SPACE.deg_shift <= degree}


def ref_diff(a, i):
    sh, unit = SPACE.shift_of(i), SPACE.unit_key(i)
    return {k - unit: c * ((k >> sh) & MAX_EXP) for k, c in a.items() if (k >> sh) & MAX_EXP}


def ref_var_mul(a, i, power):
    return {k + power * SPACE.unit_key(i): c for k, c in a.items()}


def ref_euler(a, block):
    out = {}
    for k, c in a.items():
        d = sum(SPACE.exponent_of(k, i) for i in SPACE.block_range(block))
        if d:
            out[k] = c * d
    return out


def ref_laplacian(a, block, space=SPACE):
    out = {}
    for k, c in a.items():
        for i in space.block_range(block):
            e = space.exponent_of(k, i)
            if e >= 2:
                _acc(out, k - 2 * space.unit_key(i), c * (e * (e - 1)))
    return out


def ref_block_monomial_keys(space, block, k):
    """Degree-k block monomials, one variable's exponent at a time."""
    idxs = list(space.block_range(block))
    keys = []

    def rec(pos, remaining, acc):
        if pos == len(idxs) - 1:
            keys.append(acc + remaining * space.unit_key(idxs[pos]))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, acc + e * space.unit_key(idxs[pos]))

    rec(0, k, 0)
    return keys


def ref_rho(block):
    return {2 * SPACE.unit_key(i): Fraction(1, 2) for i in SPACE.block_range(block)}


def ref_dagger(a, d, block):
    lap = ref_laplacian(a, block)
    if not lap:
        return a
    den = 2 * d + SPACE.block_size(block) - 4
    return ref_add(a, ref_scale(ref_mul(ref_rho(block), lap), Fraction(-1, den)))


def ref_expand(series, top):
    limit = min(series.cutoff, top)
    total = {}
    for (a, b), c in sorted(series.coeffs.items()):
        if 2 * (a + b) > limit:
            continue
        term = {0: Fraction(1)}
        for _ in range(a):
            term = ref_mul(term, ref_rho("x"))
        for _ in range(b):
            term = ref_mul(term, ref_rho("y"))
        total = ref_add(total, ref_scale(term, c))
    return total


def ref_apply(op, a):
    out = {}
    for (km, ka), c in op.items():
        alist = [(sh, (ka >> sh) & MAX_EXP) for sh in SPACE.shifts if (ka >> sh) & MAX_EXP]
        for ke, ce in a.items():
            mult = 1
            for sh, al in alist:
                mult *= falling((ke >> sh) & MAX_EXP, al)
            if mult:
                _acc(out, ke + km - ka, c * ce * mult)
    return out


def ref_operator(entries):
    out = {}
    for mono, deriv, c in entries:
        if c:
            _acc(out, (SPACE.pack(mono), SPACE.pack(deriv)), Fraction(c))
    return out


def ref_compose(a, b):
    """The packed Leibniz kernel with one Fraction per term."""
    shifts, units = SPACE.shifts, SPACE.units
    out = {}
    for (kma, kaa), ca in a.items():
        alpha = [(kaa >> sh) & MAX_EXP for sh in shifts]
        for (kmb, kab), cb in b.items():
            beta = [(kmb >> sh) & MAX_EXP for sh in shifts]
            choices = [
                [
                    (comb(alpha[i], g) * falling(beta[i], g), g * units[i])
                    for g in range(min(alpha[i], beta[i]) + 1)
                ]
                for i in range(NV)
                if alpha[i] and beta[i]
            ]
            for sel in itertools.product(*choices):
                mult, sub = 1, 0
                for f, u in sel:
                    mult *= f
                    sub += u
                _acc(out, (kma + kmb - sub, kaa + kab - sub), ca * cb * mult)
    return out


# -- comparison ---------------------------------------------------------------


def assert_canonical(f):
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f._terms.values())
    if f._terms:
        assert gcd(f.den, *f._terms.values()) == 1
    else:
        assert f.den == 1


def assert_matches(f, ref):
    assert_canonical(f)
    assert f.monomials() == {SPACE.unpack(k): c for k, c in ref.items()}


def assert_op_matches(op, ref):
    assert isinstance(op, WeylOperator)
    assert_canonical(op)
    assert _fr(op) == ref


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_mul_matches_reference(f, g):
    assert_matches(f.mul(g), ref_mul(_fr(f), _fr(g)))


@given(polys, polys, scalars)
@settings(max_examples=60, deadline=None)
def test_linear_kernels_match_reference(f, g, c):
    assert_matches(f + g, ref_add(_fr(f), _fr(g)))
    assert_matches(f - g, ref_add(_fr(f), ref_scale(_fr(g), -1)))
    assert_matches(-f, ref_scale(_fr(f), -1))
    assert_matches(f.scale(c), ref_scale(_fr(f), c))
    assert_matches(f.scale(3), ref_scale(_fr(f), 3))
    for cap in (0, 2, 5):
        assert_matches(truncate(f, cap), ref_truncate(_fr(f), cap))


@given(polys, variables, st.integers(0, 3), blocks)
@settings(max_examples=60, deadline=None)
def test_differential_kernels_match_reference(f, i, power, block):
    assert_matches(f.diff(i), ref_diff(_fr(f), i))
    assert_matches(f.var_mul(i, power), ref_var_mul(_fr(f), i, power))
    assert_matches(euler(f, block), ref_euler(_fr(f), block))
    assert_matches(laplacian(f, block), ref_laplacian(_fr(f), block))


@pytest.mark.parametrize("space,monomials", [
    # exponent 127 in the last x field, and in the last field of all
    (SPACE, [(0, 127, 0, 0, 0)]),
    (SPACE, [(0, 0, 0, 0, 127)]),
    # 64 and 63 on either side of the x/y boundary; terms that share a
    # block part share its moves
    (SPACE, [(0, 64, 63, 0, 0), (0, 63, 64, 0, 0), (0, 64, 0, 63, 0), (2, 62, 0, 2, 61)]),
    # one block empty
    (VariableSpace(0, 3), [(127, 0, 0), (2, 3, 4), (0, 0, 1)]),
    (VariableSpace(3, 0), [(0, 0, 127), (2, 3, 4), (1, 0, 0)]),
])
def test_laplacian_edge_fields_match_reference(space, monomials):
    f = from_monomials(space, [(e, Fraction(i + 2, 3)) for i, e in enumerate(monomials)])
    for block in ("x", "y"):
        lap = laplacian(f, block)
        assert_canonical(lap)
        assert _fr(lap) == ref_laplacian(_fr(f), block, space)
        if space.block_size(block) == 0:
            assert lap.is_zero()


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(1, 9) for p in range(n + 1)])
def test_block_monomial_keys_match_reference(p, q):
    space = VariableSpace(p, q)
    for block in "xy":
        if space.block_size(block) == 0:
            continue
        for k in range(7):
            keys = _block_monomial_keys(space, block, k)
            assert sorted(keys) == sorted(ref_block_monomial_keys(space, block, k))


@given(st.lists(st.tuples(st.integers(0, 3), coeffs), max_size=4), blocks)
@settings(max_examples=40, deadline=None)
def test_dagger_matches_reference(entries, block):
    # a block-homogeneous input of block degree d, with a fixed factor from
    # the other block so that the projection sees mixed keys
    d = 3
    lo = 0 if block == "x" else SPACE.p
    size = SPACE.block_size(block)
    other = SPACE.p if block == "x" else 0
    poly_entries = []
    for split, c in entries:
        exps = [0] * NV
        exps[lo] = d - min(split, d)
        exps[lo + size - 1] += min(split, d)
        exps[other] = 1
        poly_entries.append((tuple(exps), c))
    P = from_monomials(SPACE, poly_entries)
    assert_matches(dagger(P, block), ref_dagger(_fr(P), d, block))


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs, max_size=6
    ),
    st.integers(0, 14),
    st.integers(0, 14),
)
@settings(max_examples=40, deadline=None)
def test_series_expand_matches_reference(coeff_map, cutoff, max_degree):
    series = RadialSeries(coeff_map, cutoff)
    assert_matches(series.expand(SPACE, max_degree), ref_expand(series, max_degree))
    assert_matches(series.expand(SPACE), ref_expand(series, cutoff))


def _operator(entries):
    total = WeylOperator.zero(SPACE)
    for mono, deriv, c in entries:
        total = total + WeylOperator.term(SPACE, mono, deriv, c)
    return total


small_exps = st.lists(st.integers(0, 2), min_size=NV, max_size=NV).map(tuple)
operator_entries = st.lists(st.tuples(small_exps, small_exps, coeffs), max_size=4)
operators = operator_entries.map(_operator)


@given(operator_entries, operator_entries, scalars)
@settings(max_examples=60, deadline=None)
def test_operator_linear_kernels_match_reference(ea, eb, c):
    A, B = _operator(ea), _operator(eb)
    ra, rb = ref_operator(ea), ref_operator(eb)
    assert_op_matches(A, ra)
    assert_op_matches(B, rb)
    assert_op_matches(A + B, ref_add(ra, rb))
    assert_op_matches(A - B, ref_add(ra, ref_scale(rb, -1)))
    assert_op_matches(-A, ref_scale(ra, -1))
    assert_op_matches(A.neg(), ref_scale(ra, -1))
    assert_op_matches(A.scale(c), ref_scale(ra, c))
    assert_op_matches(A.scale(3), ref_scale(ra, 3))
    assert_op_matches(A - A, {})
    assert (A - A).den == 1


@given(operator_entries, operator_entries)
@settings(max_examples=60, deadline=None)
def test_operator_compose_matches_reference(ea, eb):
    A, B = _operator(ea), _operator(eb)
    assert_op_matches(A.compose(B), ref_compose(ref_operator(ea), ref_operator(eb)))
    assert_op_matches(B.compose(A), ref_compose(ref_operator(eb), ref_operator(ea)))


@given(operators, polys)
@settings(max_examples=60, deadline=None)
def test_weyl_apply_matches_reference(op, f):
    assert_canonical(op)
    assert_matches(op.apply(f), ref_apply(_fr(op), _fr(f)))


@given(polys)
@settings(max_examples=20, deadline=None)
def test_generator_images_match_reference(f):
    for g in generators(SPACE.p, SPACE.q, "M"):
        op = pi_generator(g, SPACE)
        assert_canonical(op)
        assert_matches(op.apply(f), ref_apply(_fr(op), _fr(f)))


def test_polynomials_and_operators_do_not_mix():
    f = MultiPoly.one(SPACE)
    op = WeylOperator.identity(SPACE)
    for combine in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            combine(f, op)
        with pytest.raises(TypeError):
            combine(op, f)
    with pytest.raises(TypeError):
        f.mul(op)
    with pytest.raises(TypeError):
        op.compose(f)
    with pytest.raises(TypeError):
        op.apply(op)
    assert (f == op) is False
    assert (op == f) is False
    assert f != op


# -- canonical form -----------------------------------------------------------


@given(polys, polys, scalars.filter(bool))
@settings(max_examples=60, deadline=None)
def test_routes_to_one_polynomial_compare_equal(f, g, c):
    assert f.scale(Fraction(2, 3)).scale(Fraction(3, 2)) == f
    assert f.scale(c).scale(1 / c) == f
    assert (f + g) - g == f
    assert f - f == MultiPoly.zero(SPACE)
    assert (f - f).den == 1
    assert -(-f) == f
    assert truncate(f.mul(g), 4) == truncate(truncate(f, 4).mul(truncate(g, 4)), 4)
    assert from_monomials(SPACE, f.monomials().items()) == f


def test_common_factors_divide_out():
    x1 = MultiPoly.variable(SPACE, 0)
    half = rho(SPACE, "x")
    assert (half._terms, half.den) == ({2 * SPACE.unit_key(0): 1, 2 * SPACE.unit_key(1): 1}, 2)
    # d/dx1 of x1^2/2 is x1: the factor 2 leaves the denominator
    sq = x1.mul(x1).scale(Fraction(1, 2))
    assert (sq.den, sq.diff(0)) == (2, x1)
    assert sq.diff(0).den == 1
    # 1/2 + 1/2 = 1, and a vanishing sum is the zero polynomial over 1
    assert half + half == half.scale(2)
    assert (half + half).den == 1
    assert (half - half).den == 1 and not (half - half)
    # truncation can drop the only term that kept a factor in the denominator
    f = from_monomials(SPACE, [((1, 0, 0, 0, 0), 1), ((3, 0, 0, 0, 0), Fraction(1, 3))])
    assert f.den == 3
    assert truncate(f, 1) == x1 and truncate(f, 1).den == 1
    for c in (Fraction(3, 7), Fraction(-1, 2)):
        assert f.coefficient((3, 0, 0, 0, 0)) == Fraction(1, 3)
        assert f.scale(c).coefficient((3, 0, 0, 0, 0)) == c / 3


def test_product_below_the_cap_is_not_refused():
    x1 = MultiPoly.variable(SPACE, 0)
    assert x1.mul(x1) == x1.var_mul(0)
    # degree 127 is the last the encoding holds
    x63, x64 = x1.var_mul(0, 62), x1.var_mul(0, 63)
    assert x63.mul(x64) == x1.var_mul(0, 126)
    with pytest.raises(ValueError, match="exceeds encoding cap"):
        x64.mul(x64)
    big = x1.var_mul(0, 99)
    with pytest.raises(ValueError, match="exceeds encoding cap"):
        big.mul(big)
