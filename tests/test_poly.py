"""Sparse polynomials, harmonic bases, and the projection correction."""

from fractions import Fraction
import copy
import pickle
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gkverify import poly
from gkverify.checks import CheckRun
from gkverify.gkmodule import ModuleParams
from gkverify.liealg import EnvelopingElement, Generator, LieElement, pi_generator
from gkverify.poly import (
    MAX_EXP,
    ONE,
    MultiPoly,
    NonHomogeneousError,
    RadialSeries,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rho,
    rsq,
)
from gkverify.symsq import SymSquareTensor
from gkverify.weyl import WeylOperator
from helpers import from_monomials
from truncated_reference import truncate

SPACE = VariableSpace(2, 4)


def degree_of(space, key):
    """The total degree of a packed key: its top field."""
    return key >> space.deg_shift


def leading_key(poly):
    """The packed key of the graded-lex largest monomial of a nonzero poly."""
    return max(poly._terms)

exponent_tuples = st.lists(st.integers(0, 5), min_size=6, max_size=6).map(tuple)
small_coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=10
)
polys = st.lists(
    st.tuples(exponent_tuples, small_coeffs), min_size=0, max_size=5
).map(lambda entries: from_monomials(SPACE, entries))


def test_one_space_per_signature():
    # checks, module families and operators over (p, q) share one space
    for p, q in ((4, 4), (4, 6), (3, 5)):
        space = VariableSpace(p, q)
        assert space is VariableSpace(p, q) is VariableSpace(q=q, p=p)
        assert space is CheckRun(p, q, 1, 3, 3).space is ModuleParams(p, q, 1, 1).space
        assert space is ModuleParams(p, q, 0, -1).space
        assert pi_generator(Generator(1, p + 1, "M"), space).ctx is space
        assert pickle.loads(pickle.dumps(space)) is space
        assert copy.deepcopy(space) is space
    assert VariableSpace(2, 2) != VariableSpace(2, 3)
    assert VariableSpace(1, 0) is not VariableSpace(0, 1)


@pytest.mark.parametrize(
    "p, q, error",
    [
        (2.5, 1, TypeError),
        (2.0, 2, TypeError),
        (2, 2.0, TypeError),
        (True, 1, TypeError),
        (1, False, TypeError),
        (Fraction(2), 2, TypeError),
        ("2", 2, TypeError),
        (None, 2, TypeError),
        (-1, 2, ValueError),
        (0, 0, ValueError),
    ],
)
def test_space_sizes_are_validated_before_interning(p, q, error):
    VariableSpace(2, 2)  # (2.0, 2) must not find this one
    table = dict(poly._SPACES)
    for _ in range(2):  # on every call, not only the first
        with pytest.raises(error, match="int, not|p, q >= 0"):
            VariableSpace(p, q)
    assert poly._SPACES == table
    assert all(type(s.p) is int and type(s.q) is int for s in poly._SPACES.values())


def test_pack_unpack_roundtrip():
    space = VariableSpace(3, 5)
    exps = (1, 0, 4, 0, 2, 0, 0, 7)
    key = space.pack(exps)
    assert space.unpack(key) == exps
    assert degree_of(space, key) == sum(exps)
    for i, e in enumerate(exps):
        assert space.exponent_of(key, i) == e


def test_pack_ordering_is_graded_lex():
    space = VariableSpace(2, 2)
    low = space.pack((1, 1, 0, 0))
    high = space.pack((0, 0, 0, 3))
    assert high > low  # higher total degree wins
    a = space.pack((2, 0, 0, 0))
    b = space.pack((1, 1, 0, 0))
    assert a > b  # same degree, earlier variable wins


SUPPORT_SPACES = [VariableSpace(p, q) for p, q in ((1, 1), (1, 3), (2, 2), (8, 8))]
field_values = st.sampled_from([0, 0, 1, 2, 63, 64, 127]) | st.integers(0, 127)


@given(
    st.sampled_from(SUPPORT_SPACES).flatmap(
        lambda sp: st.tuples(
            st.just(sp), st.lists(field_values, min_size=sp.nvars, max_size=sp.nvars)
        )
    ),
    st.integers(0, 127),
)
@settings(max_examples=200, deadline=None)
def test_support_marks_exactly_the_nonzero_fields(space_exps, degree):
    # any degree field, packable or not, must leave the result alone
    space, exps = space_exps
    key = sum(e << sh for e, sh in zip(exps, space.shifts)) | degree << space.deg_shift
    want = sum(1 << sh for e, sh in zip(exps, space.shifts) if e)
    assert space.support(key) == want


@pytest.mark.parametrize("space", SUPPORT_SPACES, ids=lambda sp: f"{sp.p}-{sp.q}")
def test_support_at_the_edge_fields(space):
    # x_1's field sits just below the degree field, the last one at bit 0;
    # 127 sets all seven bits of a field, 64 only the top one
    nv = space.nvars
    for i in (0, nv - 1):
        for e in (127, 64, 1):
            exps = [0] * nv
            exps[i] = e
            assert space.support(space.pack(tuple(exps))) == 1 << space.shifts[i]
    # a full degree field over empty variable fields
    assert space.support(MAX_EXP << space.deg_shift) == 0
    assert space.low_bits == space.support(space.pack((1,) * nv))


def test_pack_rejects_out_of_range():
    space = VariableSpace(2, 2)
    with pytest.raises(ValueError):
        space.pack((200, 0, 0, 0))
    with pytest.raises(ValueError):
        space.pack((1, 0, 0))


@pytest.mark.parametrize("i", [-1, 4], ids=["minus_one", "nvars"])
def test_out_of_range_variable_index_raises(i):
    sp = VariableSpace(2, 2)
    x1 = MultiPoly.variable(sp, 0)
    calls = [
        lambda: sp.shift_of(i),
        lambda: sp.unit_key(i),
        lambda: sp.exponent_of(leading_key(x1), i),
        lambda: MultiPoly.variable(sp, i),
        lambda: x1.diff(i),
        lambda: x1.var_mul(i),
        lambda: x1.var_mul(i, 0),
        lambda: WeylOperator.diff(sp, i),
        lambda: WeylOperator.var(sp, i),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="variable index"):
            call()


def test_negative_power_raises():
    sp = VariableSpace(2, 2)
    with pytest.raises(ValueError, match="negative power"):
        MultiPoly.one(sp).var_mul(0, -1)


def test_inexact_coefficients_are_refused():
    sp = VariableSpace(1, 1)
    with pytest.raises(TypeError, match="int or Fraction"):
        from_monomials(sp, [((1, 0), 0.1)])
    with pytest.raises(TypeError, match="int or Fraction"):
        WeylOperator.term(sp, (1, 0), (0, 1), 0.1)
    with pytest.raises(TypeError, match="int or Fraction"):
        RadialSeries({(0, 0): 0.5}, 4)
    f = MultiPoly.variable(sp, 0)
    for obj in (f, WeylOperator.var(sp, 0)):
        with pytest.raises(TypeError, match="int or Fraction"):
            obj.scale(0.5)
        with pytest.raises(TypeError, match="int or Fraction"):
            obj.scale(0.0)
    # the Lie-side constructors and their scale refuse floats as well
    sig, g = (1, 2), Generator(1, 2, "M")
    for make in (
        lambda: LieElement(sig, "M", {g: 0.5}),
        lambda: EnvelopingElement(sig, "M", {(g, g): 0.5}),
        lambda: SymSquareTensor(sig, "M", {(g, g): 0.5}),
        lambda: LieElement.basis(g, sig).scale(0.5),
    ):
        with pytest.raises(TypeError, match="int or Fraction"):
            make()
    # exact inputs still go through, zeros included
    assert LieElement(sig, "M", {g: Fraction(0)}) == LieElement.zero(sig, "M")
    assert f.scale(0) == MultiPoly.zero(sp)
    assert from_monomials(sp, [((1, 0), Fraction(0)), ((1, 0), 1)]) == f
    assert RadialSeries({(0, 0): 1, (1, 0): 0}, 4).expand(sp) == MultiPoly.one(sp)


@given(polys, polys, polys)
@settings(max_examples=40)
def test_poly_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f.mul(g) == g.mul(f)
    assert f.mul(g.mul(h)) == f.mul(g).mul(h)
    assert f.mul(g + h) == f.mul(g) + f.mul(h)
    assert f - f == MultiPoly.zero(SPACE)


@given(polys, polys)
@settings(max_examples=40)
def test_mul_truncation_consistency(f, g):
    # no term of a product below a cap comes from a factor's term above it
    full = f.mul(g)
    for cap in (0, 3, 7):
        assert truncate(truncate(f, cap).mul(truncate(g, cap)), cap) == truncate(full, cap)


def test_monomials_roundtrip():
    f = from_monomials(
        SPACE, [((1, 0, 2, 0, 0, 0), 3), ((0, 0, 0, 0, 0, 4), Fraction(-5, 7))]
    )
    assert from_monomials(SPACE, f.monomials().items()) == f


def test_display_frozen_values():
    space = VariableSpace(2, 2)
    x1, y2 = MultiPoly.variable(space, 0), MultiPoly.variable(space, 3)
    f = MultiPoly.reduced(
        space, {space.pack((2, 0, 1, 0)): 1, space.pack((0, 3, 0, 2)): -5, 0: 7}, 3
    )
    assert str(MultiPoly.zero(space)) == "0"
    assert str(MultiPoly.one(space).scale(Fraction(3, 2))) == "(3/2)*1"
    assert str(x1.mul(y2)) == "(1)*x1*y2"
    assert str(f) == "(-5/3)*x2^3*y2^2 + (1/3)*x1^2*y1 + (7/3)*1"


def test_block_homogeneous_degree():
    x1 = MultiPoly.variable(SPACE, 0)
    y1 = MultiPoly.variable(SPACE, 2)
    f = x1.mul(x1).mul(y1)
    assert f.block_homogeneous_degree("x") == 2
    assert f.block_homogeneous_degree("y") == 1
    g = x1 + x1.mul(x1)
    with pytest.raises(NonHomogeneousError):
        g.block_homogeneous_degree("x")


def test_euler_scales_by_block_degree():
    x1 = MultiPoly.variable(SPACE, 0)
    y1 = MultiPoly.variable(SPACE, 2)
    f = x1.mul(x1).mul(y1)
    assert euler(f, "x") == f.scale(2)
    assert euler(f, "y") == f.scale(1)


def test_laplacian_frozen_value():
    # Laplacian_x of x1^2 x2^2 is 2 x2^2 + 2 x1^2
    space = VariableSpace(2, 2)
    x1 = MultiPoly.variable(space, 0)
    x2 = MultiPoly.variable(space, 1)
    f = x1.mul(x1).mul(x2).mul(x2)
    expect = x2.mul(x2).scale(2) + x1.mul(x1).scale(2)
    assert laplacian(f, "x") == expect


def test_rho_is_half_rsq():
    for block in ("x", "y"):
        assert rho(SPACE, block) == rsq(SPACE, block).scale(Fraction(1, 2))


@pytest.mark.parametrize("nblk", [2, 3, 4, 5, 6])
def test_harmonic_dimension_formula(nblk):
    # the nullspace construction must land exactly on the two-binomial count
    space = VariableSpace(nblk, 2)
    k_top = 8 if nblk <= 4 else 6
    for k in range(k_top + 1):
        basis = harmonic_basis(space, "x", k)
        expected = comb(nblk + k - 1, k) - comb(nblk + k - 3, k - 2) if k >= 2 else (
            1 if k == 0 else nblk
        )
        assert harmonic_dim(nblk, k) == expected
        assert len(basis) == expected
        for h in basis:
            assert laplacian(h, "x").is_zero()
            assert h.block_homogeneous_degree("x") == k


@pytest.mark.parametrize("sig", [(2, 4), (4, 2), (3, 3), (5, 3)])
def test_harmonic_basis_is_canonical(sig):
    # reduced echelon in graded-lex order: monic leading monomials, all
    # distinct, listed in strictly descending order, still harmonic
    space = VariableSpace(*sig)
    for block in ("x", "y"):
        for k in range(0, 5):
            basis = harmonic_basis(space, block, k)
            leads = [leading_key(h) for h in basis]
            assert leads == sorted(leads, reverse=True)
            assert len(set(leads)) == len(basis)
            for h, lead in zip(basis, leads):
                assert h.monomials()[space.unpack(lead)] == ONE
                assert laplacian(h, block).is_zero()


def test_negative_harmonic_degree_is_refused():
    for block in ("x", "y"):
        with pytest.raises(ValueError):
            harmonic_basis(SPACE, block, -1)


def test_unknown_block_is_refused():
    for bad in ("z", ""):
        with pytest.raises(ValueError, match="block must be"):
            SPACE.block_size(bad)
        with pytest.raises(ValueError, match="block must be"):
            harmonic_basis(SPACE, bad, 1)
        for f in (MultiPoly.zero(SPACE), MultiPoly.one(SPACE)):
            with pytest.raises(ValueError, match="block must be 'x' or 'y'"):
                laplacian(f, bad)
            with pytest.raises(ValueError, match="block must be 'x' or 'y'"):
                euler(f, bad)
            with pytest.raises(ValueError, match="block must be 'x' or 'y'"):
                f.block_homogeneous_degree(bad)
    assert (SPACE.block_size("x"), SPACE.block_size("y")) == (2, 4)


def test_dagger_on_harmonic_is_identity():
    basis = harmonic_basis(SPACE, "y", 2)
    for h in basis:
        assert dagger(h, "y") == h


def test_dagger_projects_variable_times_harmonic():
    # P = y_1 h has Laplacian^2 P = 0, so one correction step lands on a harmonic
    y1 = MultiPoly.variable(SPACE, 2)
    for k in range(4):
        for h in harmonic_basis(SPACE, "y", k):
            P = y1.mul(h)
            Pd = dagger(P, "y")
            assert laplacian(Pd, "y").is_zero()
            # the correction only subtracts a multiple of the radial square
            diff = P - Pd
            if not diff.is_zero():
                assert diff.block_homogeneous_degree("y") == k + 1


def test_dagger_frozen_value():
    # x1^3 in a 2-variable block: dagger = x1^3 - (3/2) rho_x x1, by hand
    space = VariableSpace(2, 2)
    x1 = MultiPoly.variable(space, 0)
    P = x1.mul(x1).mul(x1)
    expect = P - rho(space, "x").mul(x1).scale(Fraction(3, 2))
    assert dagger(P, "x") == expect
    assert laplacian(expect, "x").is_zero()


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_harmonic_products_are_bihomogeneous(k, l):
    h1 = harmonic_basis(SPACE, "x", k)[0]
    h2 = harmonic_basis(SPACE, "y", l)[0]
    f = h1.mul(h2)
    assert f.block_homogeneous_degree("x") == k
    assert f.block_homogeneous_degree("y") == l
    assert laplacian(f, "x").is_zero()
    assert laplacian(f, "y").is_zero()
