"""Normal-ordered differential operators: composition, application, brackets."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from gkverify.poly import ONE, MultiPoly, VariableSpace, euler, laplacian, rsq
from gkverify.weyl import WeylOperator, euler_op, laplacian_op, rsq_op

SPACE = VariableSpace(2, 2)
NV = SPACE.nvars

small_exps = st.lists(st.integers(0, 2), min_size=NV, max_size=NV).map(tuple)
small_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def _op_from_entries(entries):
    total = WeylOperator.zero(SPACE)
    for mono, deriv, c in entries:
        total = total + WeylOperator.term(SPACE, mono, deriv, c)
    return total


operators = st.lists(
    st.tuples(small_exps, small_exps, small_coeffs), min_size=0, max_size=3
).map(_op_from_entries)

polys = st.lists(
    st.tuples(small_exps, small_coeffs), min_size=0, max_size=4
).map(lambda entries: MultiPoly.from_monomials(SPACE, entries))


def test_canonical_commutation_relations():
    ident = WeylOperator.identity(SPACE)
    zero = WeylOperator.zero(SPACE)
    for i in range(NV):
        for j in range(NV):
            di = WeylOperator.diff(SPACE, i)
            vj = WeylOperator.var(SPACE, j)
            assert di.commutator(vj) == (ident if i == j else zero)
            assert di.commutator(WeylOperator.diff(SPACE, j)).is_zero()
            assert WeylOperator.var(SPACE, i).commutator(vj).is_zero()


def test_normal_ordering_frozen_value():
    # d1^2 x1^2 = x1^2 d1^2 + 4 x1 d1 + 2, the two-variable Leibniz expansion
    d1 = WeylOperator.diff(SPACE, 0)
    x1 = WeylOperator.var(SPACE, 0)
    lhs = d1.compose(d1).compose(x1).compose(x1)
    e = (0,) * NV
    x = (1, 0, 0, 0)
    xx = (2, 0, 0, 0)
    rhs = (
        WeylOperator.term(SPACE, xx, xx, 1)
        + WeylOperator.term(SPACE, x, x, 4)
        + WeylOperator.term(SPACE, e, e, 2)
    )
    assert lhs == rhs


def test_apply_frozen_value():
    # (x1 d1 + d2) applied to x1^2 x2 gives 2 x1^2 x2 + x1^2
    op = WeylOperator.term(SPACE, (1, 0, 0, 0), (1, 0, 0, 0), 1) + WeylOperator.diff(
        SPACE, 1
    )
    f = MultiPoly.from_monomials(SPACE, [((2, 1, 0, 0), ONE)])
    expect = MultiPoly.from_monomials(SPACE, [((2, 1, 0, 0), Fraction(2)), ((2, 0, 0, 0), ONE)])
    assert op.apply(f) == expect


@given(operators, operators, polys)
@settings(max_examples=40, deadline=None)
def test_compose_matches_sequential_application(A, B, f):
    assert A.compose(B).apply(f) == A.apply(B.apply(f))


@given(operators, operators, operators)
@settings(max_examples=30, deadline=None)
def test_commutator_jacobi(A, B, C):
    jac = (
        A.commutator(B.commutator(C))
        + B.commutator(C.commutator(A))
        + C.commutator(A.commutator(B))
    )
    assert jac.is_zero()


@given(operators, operators)
@settings(max_examples=40, deadline=None)
def test_composition_degree_bookkeeping(A, B):
    C = A.compose(B)
    if C.is_zero():
        return
    assert C.degree_raise() <= A.degree_raise() + B.degree_raise()
    assert (
        C.max_derivative_order()
        <= A.max_derivative_order() + B.max_derivative_order()
    )


@given(operators, operators, polys)
@settings(max_examples=30, deadline=None)
def test_operator_linearity(A, B, f):
    assert (A + B).apply(f) == A.apply(f) + B.apply(f)
    assert A.scale(Fraction(2, 3)).apply(f) == A.apply(f).scale(Fraction(2, 3))


def test_block_operators_match_polynomial_maps():
    f = MultiPoly.from_monomials(
        SPACE, [((2, 0, 1, 0), ONE), ((0, 1, 0, 2), Fraction(1, 3))]
    )
    for block in ("x", "y"):
        assert euler_op(SPACE, block).apply(f) == euler(f, block)
        assert laplacian_op(SPACE, block).apply(f) == laplacian(f, block)
        assert rsq_op(SPACE, block).apply(f) == rsq(SPACE, block).mul(f)


def test_power():
    d1 = WeylOperator.diff(SPACE, 0)
    assert d1.power(0) == WeylOperator.identity(SPACE)
    assert d1.power(3) == d1.compose(d1).compose(d1)
