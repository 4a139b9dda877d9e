"""Exact rational coefficients: frozen values and field axioms.

A polynomial or an operator stores int numerators over one positive
denominator that shares no factor with all of them, and hands its
coefficients out as reduced ``Fraction``s; echelon rows are primitive int
rows.  These tests pin the arithmetic the package performs on them
(products, pivot rows, reduction) and check the field axioms on the
coefficient type; the ``weyl.field_axioms`` check runs them at run time on
one-term constant polynomials.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkverify import ONE, ZERO
from gkverify.liealg import LieElement, generators, pi_generator
from gkverify.linalg import SparseRREF
from gkverify.poly import MultiPoly, VariableSpace
from gkverify.weyl import WeylOperator
from helpers import from_monomials

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=50
)
nonzero_rationals = rationals.filter(lambda z: z != ZERO)


def test_constants():
    assert type(ZERO) is Fraction and ZERO == 0
    assert type(ONE) is Fraction and ONE == 1
    # the realization has no imaginary unit left: every image coefficient is +-1
    space = VariableSpace(2, 3)
    for g in generators(2, 3, "M"):
        op = pi_generator(g, space)
        assert op.den == 1
        for c in op._terms.values():
            assert type(c) is int and Fraction(c, op.den) in (ONE, -ONE)


def test_frozen_product():
    # (3/4 x1 + 2/5 y1)(-1/2 x1 + y1) = -3/8 x1^2 + 11/20 x1 y1 + 2/5 y1^2, by hand
    space = VariableSpace(1, 1)
    a = from_monomials(space, [((1, 0), Fraction(3, 4)), ((0, 1), Fraction(2, 5))])
    b = from_monomials(space, [((1, 0), Fraction(-1, 2)), ((0, 1), 1)])
    expect = from_monomials(
        space,
        [((2, 0), Fraction(-3, 8)), ((1, 1), Fraction(11, 20)), ((0, 2), Fraction(2, 5))],
    )
    assert a.mul(b) == expect


def test_frozen_inverse():
    # a stored pivot row is primitive with a positive pivot entry, in ints
    rref = SparseRREF()
    assert rref.add_row({0: 3, 1: 4}) == ("pivot", 0)
    row = rref.rows[0]
    assert row == {0: 3, 1: 4}
    assert all(type(v) is int for v in row.values())
    rref = SparseRREF()
    assert rref.add_row({0: -6, 1: -8}) == ("pivot", 0)
    row = rref.rows[0]
    assert row == {0: 3, 1: 4}
    assert all(type(v) is int for v in row.values())


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    # the echelon form never divides by a vanishing entry
    rref = SparseRREF()
    assert rref.add_row({0: ZERO, 1: 0}) == ("dependent", None)
    assert rref.rank == 0


@given(rationals, rationals, rationals)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO
    assert a + (-a) == ZERO


@given(nonzero_rationals)
def test_multiplicative_inverse(a):
    assert a * (1 / a) == ONE
    assert (ONE / a) * a == ONE


@given(rationals, nonzero_rationals)
def test_division_roundtrip(a, b):
    assert (a / b) * b == a


@given(rationals, nonzero_rationals)
@settings(max_examples=40)
def test_components_stay_reduced(a, b):
    # composition and application yield int numerators over a positive
    # denominator with content 1, read out as reduced Fractions
    space = VariableSpace(1, 1)
    A = WeylOperator.term(space, (1, 1), (1, 0), a)
    B = WeylOperator.term(space, (2, 0), (0, 1), b) + WeylOperator.diff(space, 0).scale(b)
    f = from_monomials(space, [((3, 1), b), ((0, 2), a)])
    AB = A.compose(B)
    for obj in (AB, f, A.apply(f), AB.apply(f)):
        assert type(obj.den) is int and obj.den > 0
        assert all(type(c) is int and c for c in obj._terms.values())
        assert gcd(obj.den, *obj._terms.values()) == 1
    for c in AB._terms.values():
        c = Fraction(c, AB.den)
        assert gcd(c.numerator, c.denominator) == 1
    for poly in (f, A.apply(f), AB.apply(f)):
        for c in poly.monomials().values():
            assert type(c) is Fraction
            assert gcd(c.numerator, c.denominator) == 1


def _reduced_cases():
    """(class, context, two distinct keys) for each SparseRational kind."""
    space = VariableSpace(1, 2)
    g, h = generators(1, 2, "X")[:2]
    return [
        (MultiPoly, space, space.unit_key(0), space.unit_key(1)),
        (WeylOperator, space, (space.unit_key(0), 0), (0, space.unit_key(1))),
        (LieElement, ((1, 2), "X"), g, h),
    ]


@pytest.mark.parametrize("den", [1, 6, 2**61 - 1])
def test_reduced_gives_zero_den_one_and_keeps_den_one_terms(den):
    # zero is canonical only with den 1, whatever den the kernel passed;
    # over den 1 nothing divides out, so the numerators stay as they are,
    # even when they share a factor
    for cls, ctx, a, b in _reduced_cases():
        for terms in ({}, {a: 0}, {a: 0, b: 0}):
            zero = cls.reduced(ctx, terms, den)
            assert (zero._terms, zero.den) == ({}, 1)
        x = cls.reduced(ctx, {a: 3, b: -5}, den)
        cancelled = x - x
        assert type(cancelled) is cls and (cancelled._terms, cancelled.den) == ({}, 1)
        kept = {a: 6, b: -4}
        one = cls.reduced(ctx, kept, 1)
        assert one._terms is kept and one._terms == {a: 6, b: -4} and one.den == 1
        if den > 1:
            scaled = cls.reduced(ctx, {a: 6 * den, b: -4 * den}, den)
            assert (scaled._terms, scaled.den) == ({a: 6, b: -4}, 1)


@given(rationals)
def test_hash_consistency(a):
    b = Fraction(3 * a.numerator, 3 * a.denominator)
    assert a == b
    assert hash(a) == hash(b)
    if a.denominator == 1:
        assert hash(a) == hash(a.numerator)
