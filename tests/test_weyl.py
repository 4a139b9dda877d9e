"""Normal-ordered differential operators: composition, application, brackets."""

import inspect
import itertools
import re
import textwrap
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from gkverify import weyl
from gkverify.checks import _op_family, _poly_family
from gkverify.liealg import closed_operator, generators, pi_generator, sl2_triple
from gkverify.poly import MAX_EXP, ONE, MultiPoly, VariableSpace, euler, laplacian, rsq
from gkverify.weyl import WeylOperator, _contract, euler_op, laplacian_op, falling, rsq_op
from helpers import from_monomials, product_contract, two_pass_commutator

SPACE = VariableSpace(2, 2)
NV = SPACE.nvars

small_exps = st.lists(st.integers(0, 2), min_size=NV, max_size=NV).map(tuple)
small_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)


def _op_from_entries(entries, space=SPACE):
    total = WeylOperator.zero(space)
    for mono, deriv, c in entries:
        total = total + WeylOperator.term(space, mono, deriv, c)
    return total


operators = st.lists(
    st.tuples(small_exps, small_exps, small_coeffs), min_size=0, max_size=3
).map(_op_from_entries)

polys = st.lists(
    st.tuples(small_exps, small_coeffs), min_size=0, max_size=4
).map(lambda entries: from_monomials(SPACE, entries))


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
    f = from_monomials(SPACE, [((2, 1, 0, 0), ONE)])
    expect = from_monomials(SPACE, [((2, 1, 0, 0), Fraction(2)), ((2, 0, 0, 0), ONE)])
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


# the differential checks below run in every space here: one variable per
# block, a single x beside three y's, and sixteen variables, where x_1's
# field sits below a degree field at bit 112
SPACES = [VariableSpace(1, 1), VariableSpace(1, 3), SPACE, VariableSpace(8, 8)]


def _exps(space, hi):
    """Exponent tuples up to hi; above four variables at most four are nonzero."""
    nv = space.nvars
    if nv <= 4:
        return st.lists(st.integers(0, hi), min_size=nv, max_size=nv).map(tuple)
    return st.dictionaries(st.integers(0, nv - 1), st.integers(1, hi), max_size=4).map(
        lambda d: tuple(d.get(i, 0) for i in range(nv))
    )


def _wide_operators_in(space):
    return st.lists(
        st.tuples(_exps(space, 4), _exps(space, 4), small_coeffs), min_size=0, max_size=4
    ).map(lambda entries: _op_from_entries(entries, space))


wide_pairs = st.sampled_from(SPACES).flatmap(
    lambda sp: st.tuples(_wide_operators_in(sp), _wide_operators_in(sp))
)


def _t(space, mono=None, deriv=None, coeff=1):
    """One term; mono and deriv map a variable index (-1 for the last) to its exponent."""
    nv = space.nvars

    def exps(d):
        e = [0] * nv
        for i, v in (d or {}).items():
            e[i % nv] = v
        return tuple(e)

    return WeylOperator.term(space, exps(mono), exps(deriv), coeff)


# Fields at the edges of the key with all seven bits set (127) or only the
# top one (64): x_1's field sits just below the degree field, the last
# variable's field at bit 0.  A support fold that misses a bit drops the
# contractions of d^64 past a power of its variable.
EDGE_PAIRS = [
    (_t(sp, deriv={i: e}), _t(sp, mono={i: m}, coeff=Fraction(-3, 2)) + _t(sp, mono={-1 - i: 1}))
    for sp in (VariableSpace(1, 1), SPACE, VariableSpace(8, 8))
    for i in (0, -1)
    for e, m in ((127, 1), (64, 3), (64, 63))
] + [
    (
        _t(SPACE, mono={0: 64}, deriv={-1: 64}) + _t(SPACE, deriv={0: 3, -1: 1}),
        _t(SPACE, mono={-1: 63}, deriv={0: 63}, coeff=5),
    ),
]


def _with_edge_pairs(test):
    for A, B in EDGE_PAIRS:
        test = example((A, B))(test)
    return test


@given(wide_pairs)
@_with_edge_pairs
@settings(max_examples=200, deadline=None)
def test_commutator_is_the_composition_difference(pair):
    # exponents up to 4 give contractions of order >= 2; empty lists give zero
    A, B = pair
    assert A.commutator(B) == A.compose(B) - B.compose(A)
    assert B.commutator(A) == B.compose(A) - A.compose(B)


@pytest.mark.parametrize("p, q", [(2, 2), (1, 3), (3, 3)])
def test_commutator_on_the_realization(p, q):
    space = VariableSpace(p, q)
    zero = WeylOperator.zero(space)
    ops = [pi_generator(g, space) for g in generators(p, q, "M")]
    ops += list(sl2_triple(space)) + [zero]
    for A in ops:
        for B in ops:
            assert A.commutator(B) == A.compose(B) - B.compose(A)
    # the contraction of order two in [d1^2, x1^2] = 4 x1 d1 + 2
    e = (0,) * space.nvars
    x = (1,) + e[1:]
    xx = (2,) + e[1:]
    d1_sq = WeylOperator.term(space, e, xx)
    x1_sq = WeylOperator.term(space, xx, e)
    expect = WeylOperator.term(space, x, x, 4) + WeylOperator.term(space, e, e, 2)
    assert d1_sq.commutator(x1_sq) == expect


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


def test_apply_at_the_encoding_cap():
    x126 = from_monomials(SPACE, [((126, 0, 0, 0), 1)])
    top = from_monomials(SPACE, [((127, 0, 0, 0), 126)])
    below = from_monomials(SPACE, [((125, 0, 0, 0), 126)])
    ident = WeylOperator.identity(SPACE)
    # the boundary is the same whether apply builds the operator's table or
    # an earlier compose did
    for built in (False, True):
        raise_one = WeylOperator.term(SPACE, (2, 0, 0, 0), (1, 0, 0, 0))  # x1^2 d1
        raise_two = WeylOperator.term(SPACE, (3, 0, 0, 0), (1, 0, 0, 0))  # x1^3 d1
        lower_one = WeylOperator.diff(SPACE, 0)
        mixed = raise_one + lower_one
        over = raise_two + raise_one + lower_one
        if built:
            for op in (raise_one, raise_two, mixed, over):
                op.compose(ident)
        # the guard reads the result's degree, not the operator's monomial degree
        assert raise_one.apply(x126) == top
        with pytest.raises(ValueError, match="degree 128 exceeds encoding cap 127"):
            raise_two.apply(x126)
        assert mixed.apply(x126) == top + below
        with pytest.raises(ValueError, match="degree 128 exceeds encoding cap 127"):
            over.apply(x126)


def test_display_frozen_values():
    space = VariableSpace(2, 2)
    op = (
        WeylOperator.term(space, (1, 0, 0, 2), (0, 0, 3, 0), Fraction(1, 2))
        + WeylOperator.term(space, (0, 0, 0, 0), (2, 1, 0, 0), -4)
        + WeylOperator.term(space, (0, 1, 1, 0), (0, 0, 0, 1), 3)
    )
    assert str(WeylOperator.zero(space)) == "0"
    assert str(WeylOperator.identity(space).scale(Fraction(-2, 5))) == "(-2/5)*1"
    assert str(op) == "(1/2)*x1*y2^2*Dy1^3 + (3)*x2*y1*Dy2 + (-4)*Dx1^2*Dx2"


def test_block_operators_match_polynomial_maps():
    f = from_monomials(
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


def _reference_compose(A, B):
    """Leibniz composition through exponent tuples: unpack, add, subtract, pack."""
    sp = A.space
    nv = sp.nvars
    b_items = [
        (sp.unpack(km), sp.unpack(ka), Fraction(c, B.den)) for (km, ka), c in B._terms.items()
    ]
    acc = {}
    for (kma, kaa), ca in A._terms.items():
        ca = Fraction(ca, A.den)
        a, alpha = sp.unpack(kma), sp.unpack(kaa)
        for b, beta, cb in b_items:
            idxs = [i for i in range(nv) if alpha[i] and b[i]]
            ranges = [range(min(alpha[i], b[i]) + 1) for i in idxs]
            for gsel in itertools.product(*ranges):
                mult = 1
                new_m = [x + y for x, y in zip(a, b)]
                new_d = [x + y for x, y in zip(alpha, beta)]
                for i, g in zip(idxs, gsel):
                    mult *= comb(alpha[i], g) * falling(b[i], g)
                    new_m[i] -= g
                    new_d[i] -= g
                key = (sp.pack(tuple(new_m)), sp.pack(tuple(new_d)))
                cur = acc.get(key, 0) + ca * cb * mult
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)
    return acc


@given(wide_pairs)
@_with_edge_pairs
@settings(max_examples=120, deadline=None)
def test_compose_matches_reference_leibniz(pair):
    # same terms in the same insertion order, not only the same dict
    for A, B in (pair, pair[::-1]):
        C = A.compose(B)
        got = [(k, Fraction(c, C.den)) for k, c in C._terms.items()]
        assert got == list(_reference_compose(A, B).items())


def test_compose_degree_cap_boundary():
    e = (0,) * NV
    for side in ("mono", "deriv"):

        def op(exps):
            return WeylOperator.term(SPACE, *((exps, e) if side == "mono" else (e, exps)))

        # total degree 127 spread over two variables of the packed key
        assert op((60, 0, 0, 0)).compose(op((0, 67, 0, 0))) == op((60, 67, 0, 0))
        with pytest.raises(ValueError):
            op((60, 0, 0, 0)).compose(op((0, 68, 0, 0)))
        # one exponent field reaching 127, then overflowing it
        assert op((100, 0, 0, 0)).compose(op((27, 0, 0, 0))) == op((127, 0, 0, 0))
        with pytest.raises(ValueError):
            op((100, 0, 0, 0)).compose(op((28, 0, 0, 0)))


def test_commutator_degree_cap_boundary():
    e = (0,) * NV

    def t(mono, deriv=e):
        return WeylOperator.term(SPACE, mono, deriv)

    x1_d1 = (1, 0, 0, 0)
    pairs = [
        (t((60, 0, 0, 0)), t((0, 67, 0, 0))),
        (t((60, 0, 0, 0)), t((0, 68, 0, 0))),  # no contraction, still over the cap
        (t(e, (100, 0, 0, 0)), t(e, (27, 0, 0, 0))),
        (t(e, (100, 0, 0, 0)), t(e, (28, 0, 0, 0))),
        (t((100, 0, 0, 0), x1_d1), t((27, 0, 0, 0))),
        (t((100, 0, 0, 0), x1_d1), t((28, 0, 0, 0))),
        (t((1, 0, 0, 0), (0, 0, 0, 127)), t((0, 0, 0, 1))),
        (t((1, 0, 0, 0), (0, 0, 0, 127)), t((0, 0, 0, 1), x1_d1)),
    ]
    raised = 0
    for A, B in pairs:
        for X, Y in ((A, B), (B, A)):
            try:
                expect = X.compose(Y) - Y.compose(X)
            except ValueError:
                raised += 1
                with pytest.raises(ValueError, match="degree cap"):
                    X.commutator(Y)
            else:
                assert X.commutator(Y) == expect
    assert raised == 8
    # [x1^100 d1, x1^27] = 27 x1^126 sits at the cap and is formed
    assert pairs[4][0].commutator(pairs[4][1]) == WeylOperator.term(SPACE, (126, 0, 0, 0), e, 27)


@pytest.mark.parametrize("p, q", [(1, 7), (4, 4), (7, 1)])
def test_one_pass_commutator_matches_the_two_pass_form(p, q):
    # the check family, every generator image and the sl2 triple, pairwise
    space = VariableSpace(p, q)
    ops = list(_op_family(space)) + [pi_generator(g, space) for g in generators(p, q, "M")]
    ops += list(sl2_triple(space))
    for A in ops:
        for B in ops:
            assert A.commutator(B) == two_pass_commutator(A, B)
    # lifted by x_1^s or d_n^s so that some pairs cross the degree cap: the
    # one-pass kernel raises exactly when compose and the two-pass form do
    e = (0,) * space.nvars
    raised = agreed = 0
    for s in (124, 125, 126):
        lifts = [
            WeylOperator.term(space, (s,) + e[1:], e),
            WeylOperator.term(space, e, e[:-1] + (s,)),
        ]
        for lift in lifts:
            for A in ops:
                try:
                    X = lift.compose(A)
                except ValueError:
                    continue
                for B in list(_op_family(space)) + list(sl2_triple(space)):
                    for L, R in ((X, B), (B, X)):
                        try:
                            L.compose(R)
                        except ValueError:
                            raised += 1
                            with pytest.raises(ValueError, match="degree cap"):
                                L.commutator(R)
                            with pytest.raises(ValueError, match="degree cap"):
                                two_pass_commutator(L, R)
                        else:
                            agreed += 1
                            assert L.commutator(R) == two_pass_commutator(L, R)
    assert raised and agreed


def test_commutator_refuses_other_operands():
    d1 = WeylOperator.diff(SPACE, 0)
    with pytest.raises(ValueError):
        d1.commutator(WeylOperator.var(VariableSpace(1, 3), 0))
    with pytest.raises(TypeError):
        d1.commutator(MultiPoly.variable(SPACE, 0))


# -- application against the sorted reference ---------------------------------------


def _sorted_apply(A, f):
    """``apply`` over f's monomials in sorted order, unpacking every
    derivative exponent from the field shifts.  Also returns the number of
    (term, monomial) pairs whose exponents admit the term's derivative."""
    sp = A.space
    if not A._terms or f.is_zero():
        return MultiPoly.zero(sp), 0
    f_sorted = sorted(f._terms.items())
    out = {}
    formed = 0
    for (km, ka), c in A._terms.items():
        alist = [(sh, (ka >> sh) & MAX_EXP) for sh in sp.shifts if (ka >> sh) & MAX_EXP]
        for ke, ce in f_sorted:
            mult = c * ce
            for sh, al in alist:
                e = (ke >> sh) & MAX_EXP
                if e < al:
                    break
                mult *= falling(e, al)
            else:
                nk = ke + km - ka
                out[nk] = out.get(nk, 0) + mult
                formed += 1
    return MultiPoly.reduced(sp, out, A.den * f.den), formed


class _Counted(int):
    """An int numerator that counts the products formed with it."""

    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return int(self) * other

    __rmul__ = __mul__


def _mixed_operators_in(space):
    """Shift-only terms (no derivative) beside derivative terms, with degree
    shifts |a| - |alpha| spread over -12..12."""
    no_deriv = (0,) * space.nvars
    exps_to_3 = _exps(space, 3)
    return st.lists(
        st.tuples(exps_to_3, st.one_of(st.just(no_deriv), exps_to_3), small_coeffs),
        min_size=1,
        max_size=6,
    ).map(lambda entries: _op_from_entries(entries, space))


def _wide_polys_in(space):
    return st.lists(st.tuples(_exps(space, 4), small_coeffs), min_size=0, max_size=8).map(
        lambda entries: from_monomials(space, entries)
    )


operator_poly_pairs = st.sampled_from(SPACES).flatmap(
    lambda sp: st.tuples(_mixed_operators_in(sp), _wide_polys_in(sp))
)

NO_DERIV = (0,) * NV


def _edge_poly(space):
    """Monomials whose first and last exponents reach 127 and 64."""
    nv = space.nvars
    exps = [(127,) + (0,) * (nv - 1), (0,) * (nv - 1) + (127,), (64,) + (0,) * (nv - 1)]
    exps += [(63,) + (0,) * (nv - 2) + (64,)] if nv > 1 else [(3,)]
    return from_monomials(space, [(e, Fraction(i + 1, 2)) for i, e in enumerate(exps)])


def _edge_operator(space):
    """d^64 and d^127 on the first and the last variable, and d^63 x_1 d_last."""
    return (
        _t(space, deriv={0: 64})
        + _t(space, deriv={-1: 127}, coeff=3)
        + _t(space, deriv={0: 127}, coeff=Fraction(1, 7))
        + _t(space, deriv={-1: 64}, coeff=-2)
        + _t(space, mono={0: 1}, deriv={0: 63, -1: 1})
    )


@given(operator_poly_pairs)
@settings(max_examples=300, deadline=None)
@example(
    (
        WeylOperator.term(SPACE, (1, 0, 0, 0), NO_DERIV, 2)
        + WeylOperator.term(SPACE, NO_DERIV, (0, 1, 0, 0), Fraction(1, 3)),
        MultiPoly.zero(SPACE),
    ),
)
@example(
    (
        WeylOperator.term(SPACE, (2, 0, 0, 0), NO_DERIV)
        + WeylOperator.term(SPACE, (0, 0, 1, 0), (1, 0, 0, 0), Fraction(-1, 2))
        + WeylOperator.term(SPACE, NO_DERIV, (0, 2, 0, 0), 3),
        from_monomials(
            SPACE, [((2, 1, 0, 0), 1), ((0, 3, 0, 0), 5), ((1, 0, 0, 0), 1)]
        ),
    ),
)
@example((_edge_operator(VariableSpace(1, 1)), _edge_poly(VariableSpace(1, 1))))
@example((_edge_operator(SPACE), _edge_poly(SPACE)))
@example((_edge_operator(VariableSpace(8, 8)), _edge_poly(VariableSpace(8, 8))))
def test_apply_matches_the_sorted_reference(pair):
    A, f = pair
    counted = MultiPoly(f.space, {k: _Counted(v) for k, v in f._terms.items()}, f.den)
    _Counted.products = 0
    got = A.apply(counted)
    want, formed = _sorted_apply(A, f)
    assert got._terms == want._terms
    assert got.den == want.den
    # a coefficient product is formed only where the exponents admit the
    # derivative
    assert _Counted.products == formed


# -- the fast paths of apply, one kind of row at a time --------------------------------

FAST_SPACE = VariableSpace(2, 3)


def _fast_path_operators():
    """Operators whose rows have no derivative field, one field with
    alpha_i = 1, 2, 3 or 5, or two and three fields, alone and summed."""
    sp = FAST_SPACE
    rows = [
        _t(sp, coeff=3),
        _t(sp, mono={0: 2, 3: 1}, coeff=Fraction(-1, 2)),
        _t(sp, deriv={0: 1}),
        _t(sp, mono={2: 1}, deriv={4: 1}, coeff=2),
        _t(sp, deriv={1: 2}, coeff=Fraction(5, 3)),
        _t(sp, mono={0: 1}, deriv={3: 3}),
        _t(sp, deriv={2: 5}, coeff=-7),
        _t(sp, deriv={0: 1, 1: 1}),
        _t(sp, mono={4: 2}, deriv={0: 2, 3: 3}, coeff=Fraction(1, 4)),
        _t(sp, deriv={0: 1, 2: 2, 4: 3}, coeff=-1),
    ]
    return rows + [sum(rows[1:], rows[0]), rows[2] + rows[4] + rows[7]]


def _fast_path_polys():
    """Every exponent of 0 .. 6 on each variable, below, at and above each
    alpha_i."""
    sp = FAST_SPACE
    monomials = [
        (exps, Fraction(i % 5 - 2 or 1, i % 3 + 1))
        for i, exps in enumerate(itertools.product((0, 1, 2, 3, 5, 6), repeat=2))
    ]
    spread = [((a, b, c, d, e), 1) for a, b, c, d, e in itertools.product((0, 2, 5), repeat=5)]
    return [
        from_monomials(sp, [((a, b, a, b, a), c) for (a, b), c in monomials]),
        from_monomials(sp, spread),
        MultiPoly.variable(sp, 0),
    ]


def _fast_path_mismatches():
    """(operator, polynomial) pairs where apply differs from the sorted
    reference, in its result or in the coefficient products it forms."""
    bad = 0
    for A in _fast_path_operators():
        for f in _fast_path_polys():
            counted = MultiPoly(f.space, {k: _Counted(v) for k, v in f._terms.items()}, f.den)
            _Counted.products = 0
            got = _copy(A).apply(counted)
            want, formed = _sorted_apply(A, f)
            if got._terms != want._terms or got.den != want.den or _Counted.products != formed:
                bad += 1
    return bad


def test_apply_fast_paths_match_the_sorted_reference():
    alphas = [alpha for A in _fast_path_operators() for *_, alpha in A.rows()]
    kinds = {len(alpha) for alpha in alphas}
    orders = {alpha[0][1] for alpha in alphas if len(alpha) == 1}
    assert kinds == {0, 1, 2, 3} and orders == {1, 2, 3, 5}
    assert _fast_path_mismatches() == 0


def test_apply_degree_cap_message_on_every_kind_of_row():
    sp = FAST_SPACE
    f = from_monomials(sp, [((122, 0, 0, 0, 5), 1), ((1, 1, 1, 1, 1), 2)])
    for deriv in ({}, {4: 1}, {4: 2}, {0: 1, 4: 1}):
        over = _t(sp, mono={1: 3}, deriv=deriv) + _t(sp, deriv={4: 1})
        full = f.degree() + over.degree_raise()
        assert full > MAX_EXP
        with pytest.raises(ValueError) as err:
            over.apply(f)
        assert str(err.value) == f"application degree {full} exceeds encoding cap 127"


def _apply_mutant(old, new):
    """``WeylOperator.apply`` with the one source line `old` replaced by `new`."""
    src = textwrap.dedent(inspect.getsource(WeylOperator.apply))
    assert len(re.findall(re.escape(old), src)) == 1, old
    namespace = {}
    exec(src.replace(old, new), vars(weyl), namespace)
    return namespace["apply"]


@pytest.mark.parametrize(
    "old, new",
    [
        # the one-field loop without its e >= alpha_i test
        ("if e >= al:", "if True:"),
        # the one-field loop multiplying by e whatever alpha_i is
        ("c * ce * (e if al == 1 else falling(e, al))", "c * ce * e"),
    ],
    ids=["no_exponent_guard", "e_for_falling"],
)
def test_apply_fast_path_mutants_fail(monkeypatch, old, new):
    monkeypatch.setattr(WeylOperator, "apply", _apply_mutant(old, new))
    assert _fast_path_mismatches() > 0


# -- the per-operator table ------------------------------------------------------------


def _fresh_rows(A):
    """``rows()`` recomputed from unpacked keys: per term (km, ka, c,
    support(km), support(ka), ((shift, alpha_i) for each nonzero alpha_i,
    highest shift first))."""
    sp = A.space

    def support(key):
        return sum(1 << sh for sh, e in zip(sp.shifts, sp.unpack(key)) if e)

    return tuple(
        (km, ka, c, support(km), support(ka),
         tuple((sh, e) for sh, e in zip(sp.shifts, sp.unpack(ka)) if e))
        for (km, ka), c in A._terms.items()
    )


def _fresh_degree_raise(A):
    sp = A.space
    return max((sum(sp.unpack(km)) - sum(sp.unpack(ka)) for km, ka in A._terms), default=0)


def _copy(A):
    """A with the same terms and no table built yet."""
    return WeylOperator(A.space, dict(A._terms), A.den)


@given(operator_poly_pairs)
@settings(max_examples=100, deadline=None)
# the inline supports at fields holding 127 and 64, next to the degree field
@example((_edge_operator(VariableSpace(1, 1)), _edge_poly(VariableSpace(1, 1))))
@example((_edge_operator(VariableSpace(8, 8)), _edge_poly(VariableSpace(8, 8))))
def test_rows_equal_a_fresh_recomputation(pair):
    A, f = pair
    want = _fresh_rows(A)
    assert A.degree_raise() == _fresh_degree_raise(A)
    A.apply(f)
    assert A.rows() == want
    assert A.degree_raise() == _fresh_degree_raise(A)
    assert WeylOperator.zero(A.space).rows() == ()
    assert WeylOperator.identity(A.space).rows() == ((0, 0, 1, 0, 0, ()),)


@pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (4, 4), (1, 7), (7, 1)])
def test_cached_apply_matches_the_sorted_reference_on_the_check_operators(p, q):
    # the weyl suite's operators, the closed-form images, zero and the
    # identity, each applied twice: the first application builds the table,
    # the second reads it
    space = VariableSpace(p, q)
    ops = list(_op_family(space)) + [
        closed_operator(space, which) for which in ("H", "X+", "X-", "op", "oq", "g", "xi")
    ] + [WeylOperator.zero(space), WeylOperator.identity(space)]
    polys = _poly_family(space)
    for A in ops:
        for _ in range(2):
            for f in polys:
                assert A.apply(f) == _sorted_apply(A, f)[0]
        assert A.rows() == _fresh_rows(A)
        assert A.degree_raise() == _fresh_degree_raise(A)


_FIRST = ("compose", "commutator", "apply", "degree_raise")


def _results(A, B, f, first):
    """compose, commutator, apply and degree_raise on fresh copies of A and
    B, with `first` called before the others."""
    A, B = _copy(A), _copy(B)
    calls = {
        "compose": lambda: A.compose(B),
        "commutator": lambda: A.commutator(B),
        "apply": lambda: (A.apply(f), B.apply(f)),
        "degree_raise": lambda: (A.degree_raise(), B.degree_raise()),
    }
    order = (first,) + tuple(name for name in _FIRST if name != first)
    return {name: calls[name]() for name in order}


@pytest.mark.parametrize("p, q", [(2, 2), (1, 3), (3, 2)])
def test_results_do_not_depend_on_which_method_built_the_table(p, q):
    space = VariableSpace(p, q)
    ops = list(_op_family(space)) + [closed_operator(space, "g"), WeylOperator.identity(space)]
    f = _poly_family(space)[3]
    for A, B in itertools.product(ops, repeat=2):
        want = _results(A, B, f, "degree_raise")
        for first in _FIRST[:3]:
            assert _results(A, B, f, first) == want, first


# -- the contraction kernel against its product-over-choices form -----------------------


def _contract_case(space, alpha, b):
    """(km, kd, k_alpha, k_b, shared) for d^alpha moved across v^b, with a
    variable of the pair's own in the last field of each key."""
    sp = space
    extra = [0] * sp.nvars
    extra[-1] = 1
    k_alpha, k_b = sp.pack(alpha), sp.pack(b)
    km = k_b + sp.pack(tuple(extra))
    kd = k_alpha + sp.pack(tuple(extra))
    return km, kd, k_alpha, k_b, sp.support(k_alpha) & sp.support(k_b)


def _contract_cases():
    space = VariableSpace(3, 2)
    nv = space.nvars
    rng = range(1, 5)
    # one shared field, at the first and at a middle variable
    for i in (0, 2):
        for al in rng:
            for bi in rng:
                alpha, b = [0] * nv, [0] * nv
                alpha[i], b[i] = al, bi
                alpha[1] = 2  # a derivative that b does not share
                yield space, tuple(alpha), tuple(b)
    # two and three shared fields
    for fields in ((0, 3), (1, 2, 3)):
        for als in itertools.product(range(1, 4), repeat=len(fields)):
            for bis in itertools.product((1, 3), repeat=len(fields)):
                alpha, b = [0] * nv, [0] * nv
                for i, al, bi in zip(fields, als, bis):
                    alpha[i], b[i] = al, bi
                yield space, tuple(alpha), tuple(b)


def test_contract_matches_the_product_form_in_insertion_order():
    # into an empty dict and into one holding the negated first contraction,
    # which must be deleted, so the key order after a cancellation is read too
    cases = 0
    for space, alpha, b in _contract_cases():
        km, kd, k_alpha, k_b, shared = _contract_case(space, alpha, b)
        deg_one = 1 << space.deg_shift
        for base in (1, -7):
            want, got = {}, {}
            product_contract(want, km, kd, k_alpha, k_b, shared, base, deg_one)
            _contract(got, km, kd, k_alpha, k_b, shared, base, deg_one)
            assert list(got.items()) == list(want.items()), (alpha, b)
            first, value = next(iter(want.items()))
            want, got = {first: -value, (0, 0): 1}, {first: -value, (0, 0): 1}
            product_contract(want, km, kd, k_alpha, k_b, shared, base, deg_one)
            _contract(got, km, kd, k_alpha, k_b, shared, base, deg_one)
            assert first not in got
            assert list(got.items()) == list(want.items()), (alpha, b)
        cases += 1
    assert cases == 2 * 16 + 9 * 4 + 27 * 8


def test_contract_factors_are_the_leibniz_coefficients():
    # one field: m_g = C(alpha, g) * falling(b, g) at (km - g unit, kd - g unit)
    space = VariableSpace(1, 1)
    deg_one = 1 << space.deg_shift
    for al in range(1, 6):
        for bi in range(1, 6):
            k_alpha, k_b = space.pack((al, 0)), space.pack((bi, 0))
            got = {}
            _contract(got, k_b, k_alpha, k_alpha, k_b, space.support(k_alpha), 1, deg_one)
            unit = space.unit_key(0)
            assert got == {
                (k_b - g * unit, k_alpha - g * unit): comb(al, g) * falling(bi, g)
                for g in range(1, min(al, bi) + 1)
            }
