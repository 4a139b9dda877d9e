"""An independent sympy oracle for the operator realization.

pi(X_g) is built here from the textbook formulas, with sympy's imaginary
unit: rotation fields within the first block, their negatives within the
second, and -i (x_i y_j + d_{x_i} d_{y_j}) across the blocks.  Divided by the
factor phi_g (1, -1 or i) its action on fixed polynomials must equal the
action of the package's real pi(M_g).  The composed closed-form operators,
whose coefficients are fractions, are checked the same way against sympy
applying each word of their closed form factor by factor, and compositions
of fixed operators with exponents and derivative orders up to 3 against
sympy applying the two factors one after the other.  The integer
echelon form is checked against sympy's rank, ``rref`` and matrix product.
Typical elements are restated from their documented formulas, and so are
both sides of the four-layer mixed action, with only the harmonics and the
rows of ``ModuleParams.layers`` taken from the package, and so is the
obstruction's harmonic system, with only the harmonics and the Xi values.
The one table of label rules of the module zero tests (how E, R, L, v_i
and d_{v_i} act on h (r^2)^a for a block harmonic h) is checked against
sympy applying each operator to h (r^2)^a, with only the harmonics and the
table taken from the package.  The whole-series identities of the eigenvalue forms and
the membership steps are restated with a symbol t for the series index,
with only the closed-form rows and the eigenvalues taken from the package,
and must cancel to 0.
"""

import itertools
import subprocess
import sys
from fractions import Fraction
from functools import partial

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gkverify import weyl
from gkverify.checks import REGISTRY, execute_jobs, plan_jobs
from gkverify.liealg import (
    Generator,
    _bracket_table,
    closed_form,
    closed_operator,
    generators,
    pi_generator,
)
from gkverify.linalg import SparseRREF
from gkverify.poly import VariableSpace, laplacian
from gkverify.weyl import WeylOperator
from helpers import from_monomials, product_contract, wrong_label_rule


def _symbols(space):
    return sympy.symbols(" ".join(space.var_name(i) for i in range(space.nvars)), seq=True)


def _textbook_image(g, p, v):
    """pi(X_g) as a map on sympy expressions, and the factor phi_g."""
    a, b = v[g.i - 1], v[g.j - 1]
    if g.j <= p:
        return (lambda f: a * sympy.diff(f, b) - b * sympy.diff(f, a)), 1
    if g.i > p:
        return (lambda f: -(a * sympy.diff(f, b) - b * sympy.diff(f, a))), -1
    return (lambda f: -sympy.I * (a * b * f + sympy.diff(f, a, b))), sympy.I


def _to_multipoly(expr, space, v):
    terms = sympy.Poly(expr, *v).terms()
    return from_monomials(
        space, [(exps, Fraction(int(c.p), int(c.q))) for exps, c in terms]
    )


def _fixed_polys(v):
    first, last = v[0], v[-1]
    r = sympy.Rational
    return [
        first**2 * last + r(3, 2) * last**3,
        (first + 2 * v[1]) ** 2 * (last - r(1, 3)),
        sympy.Mul(*v) + r(-5, 7),
        sum(x**2 for x in v) * first,
    ]


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2), (2, 3)])
def test_m_images_match_the_textbook_formula(p, q):
    space = VariableSpace(p, q)
    v = _symbols(space)
    for g in generators(p, q, "X"):
        image, phi = _textbook_image(g, p, v)
        mine = pi_generator(Generator(g.i, g.j, "M"), space)
        for f in _fixed_polys(v):
            want = sympy.expand(image(f) / phi)
            assert not want.has(sympy.I)
            got = mine.apply(_to_multipoly(f, space, v))
            assert got == _to_multipoly(want, space, v)


def _qq_coefficients(expr, v):
    """The coefficients of expr as a sympy Poly over QQ, as Fractions."""
    terms = sympy.Poly(expr, *v, domain=sympy.QQ).terms()
    return {
        exps: Fraction(int(c.numerator), int(c.denominator)) for exps, c in terms if c
    }


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2)])
def test_kernels_match_sympy_over_qq(p, q):
    # products, block Laplacians and the real generator images, each read
    # back through monomials() against sympy's Poly(..., domain=QQ)
    space = VariableSpace(p, q)
    v = _symbols(space)
    fixed = _fixed_polys(v)
    mine = [_to_multipoly(f, space, v) for f in fixed]
    for f, mf in zip(fixed, mine):
        for g, mg in zip(fixed, mine):
            assert mf.mul(mg).monomials() == _qq_coefficients(f * g, v)
        for block, idx in (("x", range(p)), ("y", range(p, p + q))):
            want = sum(sympy.diff(f, v[i], 2) for i in idx)
            assert laplacian(mf, block).monomials() == _qq_coefficients(want, v)
        for g in generators(p, q, "X"):
            image, phi = _textbook_image(g, p, v)
            got = pi_generator(Generator(g.i, g.j, "M"), space).apply(mf)
            assert got.monomials() == _qq_coefficients(sympy.expand(image(f) / phi), v)


def _sympy_factor(name, v, p):
    """A stock factor of a closed_form word ("Ex", "Ly", ...) on sympy expressions."""
    kind, block = name[0], name[1]
    idx = range(p) if block == "x" else range(p, len(v))
    if kind == "E":
        return lambda f: sum(v[i] * sympy.diff(f, v[i]) for i in idx)
    if kind == "L":
        return lambda f: sum(sympy.diff(f, v[i], 2) for i in idx)
    assert kind == "R"
    return lambda f: sum(v[i] ** 2 for i in idx) * f


@pytest.mark.parametrize("p, q", [(1, 2), (2, 3)])
@pytest.mark.parametrize("which", ["H", "X+", "X-", "xi"])
def test_closed_operators_match_sympy_words(p, q, which):
    # H carries (q-p)/2, X+ and X- carry +-1/2 and xi carries (p-q)/(p+q)
    space = VariableSpace(p, q)
    v = _symbols(space)
    op = closed_operator(space, which)
    assert op.den > 1
    for f in _fixed_polys(v):
        want = 0
        for c, word in closed_form(which, p, q):
            term = f
            for name in reversed(word):
                term = _sympy_factor(name, v, p)(term)
            want += sympy.Rational(c.numerator, c.denominator) * term
        got = op.apply(_to_multipoly(f, space, v))
        assert got.monomials() == _qq_coefficients(sympy.expand(want), v)


def _realization(space, v):
    """(package operator, sympy map) for every pi(M_g) and each sl2 operator."""
    p, q = space.p, space.q
    out = []
    for g in generators(p, q, "X"):
        image, phi = _textbook_image(g, p, v)
        out.append(
            (
                pi_generator(Generator(g.i, g.j, "M"), space),
                lambda f, image=image, phi=phi: sympy.expand(image(f) / phi),
            )
        )
    for which in ("H", "X+", "X-"):

        def words(f, which=which):
            total = 0
            for c, word in closed_form(which, p, q):
                term = f
                for name in reversed(word):
                    term = _sympy_factor(name, v, p)(term)
                total += sympy.Rational(c.numerator, c.denominator) * term
            return sympy.expand(total)

        out.append((closed_operator(space, which), words))
    return out


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2)])
def test_commutators_match_sympy_differentiation(p, q):
    # [A, B] f against A(B f) - B(A f), each side of it differentiated by sympy
    space = VariableSpace(p, q)
    v = _symbols(space)
    ops = _realization(space, v)
    fixed = _fixed_polys(v)
    mine = [_to_multipoly(f, space, v) for f in fixed]
    for (A, a), (B, b) in itertools.combinations(ops, 2):
        comm = A.commutator(B)
        for f, mf in zip(fixed, mine):
            want = _qq_coefficients(sympy.expand(a(b(f)) - b(a(f))), v)
            assert comm.apply(mf).monomials() == want


# Fixed operators as (monomial, derivative, coefficient) terms, each exponent
# map keyed by variable index (-1 is the last variable); exponents and
# derivative orders reach 3, so a composition contracts up to three times
# in one variable
FIXED_OPERATORS = [
    [({0: 3}, {0: 2, -1: 1}, 1), ({-1: 2}, {0: 3}, Fraction(2, 3)), ({}, {-1: 3}, -5)],
    [
        ({0: 2, -1: 1}, {}, 1),
        ({0: 3}, {-1: 2}, Fraction(1, 2)),
        ({-1: 3}, {0: 1}, 1),
        ({0: 1}, {0: 1}, Fraction(-7, 4)),
    ],
    [({1: 2}, {1: 1, 0: 1}, 3), ({0: 1, 1: 1}, {-1: 3}, Fraction(-1, 6)), ({}, {1: 2}, 1)],
]


def _fixed_operator(space, v, terms):
    """(package operator, sympy map) of a FIXED_OPERATORS entry."""
    nv = space.nvars

    def exps(d):
        e = [0] * nv
        for i, x in d.items():
            e[i % nv] += x
        return tuple(e)

    op = WeylOperator.zero(space)
    parts = []
    for mono, deriv, c in terms:
        a, alpha = exps(mono), exps(deriv)
        op = op + WeylOperator.term(space, a, alpha, c)
        parts.append((sympy.Rational(c.numerator, c.denominator), a, alpha))

    def act(f):
        total = 0
        for c, a, alpha in parts:
            d = f
            for x, k in zip(v, alpha):
                if k:
                    d = sympy.diff(d, x, k)
            total += c * sympy.Mul(*(x**e for x, e in zip(v, a))) * d
        return sympy.expand(total)

    return op, act


def _composition_mismatches(p, q):
    """How many (A, B, f) of the fixed operators and polynomials give
    (A B) f other than A(B(f)), both factors differentiated by sympy, on
    the fixed polynomials and on two of degree 6 and 7, where every
    contraction of the products survives."""
    space = VariableSpace(p, q)
    v = _symbols(space)
    ops = [_fixed_operator(space, v, terms) for terms in FIXED_OPERATORS]
    first, mid, last = v[0], v[1], v[-1]
    fixed = _fixed_polys(v) + [
        first**3 * mid * last**2 - sympy.Rational(2, 5) * mid**3 * last**3,
        (first + mid + last) ** 3 * first**2 * last**2,
    ]
    mine = [_to_multipoly(f, space, v) for f in fixed]
    wrong = 0
    for (A, a), (B, b) in itertools.product(ops, repeat=2):
        composed = A.compose(B)
        for f, mf in zip(fixed, mine):
            wrong += composed.apply(mf).monomials() != _qq_coefficients(a(b(f)), v)
    return wrong


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2)])
def test_composition_matches_sympy_differentiation(p, q):
    assert _composition_mismatches(p, q) == 0


def test_a_wrong_contraction_multiplier_fails_the_oracle_and_the_check(monkeypatch):
    # the factor of every second-order contraction one too large: the sympy
    # composition oracle and the registered weyl.compose_apply check both see it
    (r,) = execute_jobs(plan_jobs([REGISTRY["weyl.compose_apply"]], [(2, 2, None)], 3, 3))
    assert r.status == "pass"
    monkeypatch.setattr(weyl, "_contract", partial(product_contract, off_at=2))
    assert _composition_mismatches(1, 2) > 0
    for p, q in ((1, 1), (2, 2), (7, 1)):
        (r,) = execute_jobs(plan_jobs([REGISTRY["weyl.compose_apply"]], [(p, q, None)], 3, 3))
        assert r.status == "fail", (p, q)


def _sympy_generator(g, p, n):
    """E_ij - E_ji for M, eps_j E_ij - eps_i E_ji for X."""
    eps = {k: 1 if k <= p else -1 for k in (g.i, g.j)}
    m = sympy.zeros(n, n)
    if g.flavor == "X":
        m[g.i - 1, g.j - 1], m[g.j - 1, g.i - 1] = eps[g.j], -eps[g.i]
    else:
        m[g.i - 1, g.j - 1], m[g.j - 1, g.i - 1] = 1, -1
    return m


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2)])
@pytest.mark.parametrize("flavor", ["X", "M"])
def test_structure_constants_match_sympy_commutators(p, q, flavor):
    n = p + q
    gens = generators(p, q, flavor)
    mats = [_sympy_generator(g, p, n) for g in gens]
    basis = sympy.Matrix.hstack(*(m.reshape(n * n, 1) for m in mats))
    table = _bracket_table((p, q), flavor)
    for a, ma in zip(gens, mats):
        for b, mb in zip(gens, mats):
            z = (ma * mb - mb * ma).reshape(n * n, 1)
            coords = (basis.T * basis).inv() * basis.T * z
            assert basis * coords == z
            want = {
                g: Fraction(int(c.p), int(c.q)) for g, c in zip(gens, coords) if c != 0
            }
            assert dict(table[(a, b)]) == want


small_matrices = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols + 1, max_size=ncols + 1),
        min_size=1,
        max_size=5,
    )
)


@given(small_matrices)
@settings(max_examples=60, deadline=None)
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
@example([[2, 4, 1], [3, 6, 2]])
def test_echelon_form_matches_sympy_rref(aug):
    # each row is [A_i | b_i]; the echelon form reads a row r as the
    # equation r . (x, 1) = 0, so it is fed [A_i | -b_i]
    ncols = len(aug[0]) - 1
    a_mat = sympy.Matrix([r[:ncols] for r in aug])
    rref_mat, pivots = a_mat.rref()
    mine = SparseRREF()
    for r in aug:
        mine.add_row(dict(enumerate(r[:ncols])))
    assert mine.rank == a_mat.rank()
    assert tuple(sorted(mine.rows)) == pivots
    for i, pc in enumerate(pivots):
        row = mine.rows[pc]
        want = {c: Fraction(int(v.p), int(v.q)) for c, v in enumerate(rref_mat.row(i)) if v}
        assert {c: Fraction(v, row[pc]) for c, v in row.items()} == want

    system = SparseRREF(rhs_col=ncols)
    statuses = [system.add_row(dict(enumerate(r[:ncols] + [-r[ncols]])))[0] for r in aug]
    inconsistent = sympy.Matrix(aug).rank() > a_mat.rank()
    assert ("inconsistent" in statuses) == inconsistent
    if not inconsistent:
        sol = system.particular_solution()
        x = sympy.Matrix([sympy.Rational(sol.get(c, 0)) for c in range(ncols)])
        assert a_mat * x == sympy.Matrix([r[ncols] for r in aug])


def test_import_does_not_load_sympy():
    code = "import sys, gkverify; sys.exit('sympy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


def _sympy_poly(poly, v):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**e for x, e in zip(v, exps)))
        for exps, c in poly.monomials().items()
    )


def _oracle_typical(p, q, m, sign, h1, h2, D, v):
    """h1 h2 rho_s^mu Psi_kappa(rho_x rho_y) up to total degree D, from the
    documented formulas: kappa_plus = k + p/2, kappa_minus = l + q/2, the
    series weight kappa and the series block s (kappa_plus and y for sign
    +1, kappa_minus and x for sign -1), mu = (m + kappa - kappa_other)/2,
    rho = r^2/2 and Psi_a(u) = sum_j (-1)^j u^j / (j! (a)_j)."""
    x, y = v[:p], v[p:]
    k, l = sympy.Poly(h1, *x).total_degree(), sympy.Poly(h2, *y).total_degree()
    kp, km = sympy.Rational(2 * k + p, 2), sympy.Rational(2 * l + q, 2)
    rho_x, rho_y = sum(t**2 for t in x) / 2, sum(t**2 for t in y) / 2
    kappa, other, rho_s = (kp, km, rho_y) if sign == 1 else (km, kp, rho_x)
    mu = (m + kappa - other) / 2
    assert mu.is_integer and 0 <= mu
    psi = sum(
        (-1) ** j * (rho_x * rho_y) ** j / (sympy.factorial(j) * sympy.rf(kappa, j))
        for j in range(D // 4 + 1)
    )
    poly = sympy.Poly(sympy.expand(h1 * h2 * rho_s ** int(mu) * psi), *v)
    return {exps: c for exps, c in poly.terms() if sum(exps) <= D}


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p,q,m,kl_max,count", [(2, 4, 0, 2, 10), (2, 6, 1, 1, 2)])
def test_separated_typical_elements_match_sympy(p, q, m, kl_max, count, sign):
    # every harmonic product at every K-type with k, l <= kl_max (the window:
    # kappa_plus - kappa_minus in -m, -m + 2, ..., m), cut by the tests'
    # reference at an even and an odd depth, and the package's leading term
    # against the oracle's part of least degree; only the harmonics come
    # from the package.  At (2,6,1) the sign -1 element carries rho_x^mu
    # with mu = 1.
    from gkverify.gkmodule import ModuleParams
    from gkverify.poly import harmonic_basis
    from truncated_reference import TruncatedTypical

    space = VariableSpace(p, q)
    v = _symbols(space)
    params = ModuleParams(p, q, m, sign)
    compared = 0
    for k in range(kl_max + 1):
        for l in range(kl_max + 1):
            d = sympy.Rational(2 * k + p, 2) - sympy.Rational(2 * l + q, 2)
            if not (d.is_integer and abs(d) <= m and (m + d) % 2 == 0):
                continue
            for h1 in harmonic_basis(space, "x", k):
                for h2 in harmonic_basis(space, "y", l):
                    D = 9 + (h1 is harmonic_basis(space, "x", k)[0])  # both parities
                    want = _oracle_typical(
                        p, q, m, sign, _sympy_poly(h1, v), _sympy_poly(h2, v), D, v
                    )
                    base = min(map(sum, want))
                    for poly, top in (
                        (TruncatedTypical(params, h1, h2, D).expansion, D),
                        (TruncatedTypical(params, h1, h2, base).expansion, 0),
                    ):
                        got = {
                            exps: sympy.Rational(c.numerator, c.denominator)
                            for exps, c in poly.monomials().items()
                        }
                        low = min(map(sum, want)) + top
                        assert got == {e: c for e, c in want.items() if sum(e) <= low}, (
                            sign, k, l, D
                        )
                    compared += 1
    assert compared == count


def _oracle_layers_side(p, sign, rows, h1, h2, i, j, top, v):
    """The sum over the layer rows (weight, radial, num, den, kappa, e) of
    num/den F_x(h1) F_y(h2) rho_s^e Psi_kappa(rho_x rho_y) up to degree top.
    The x harmonic moves along x_i and the y harmonic along y_j; the
    weight-block one (x for sign +1) as `weight` says and the other as
    `radial` says: "d" is the partial, "v" the harmonic part v h - r^2 d_v h
    / (2 deg h + n_block - 2) of v h.  rho_s is the series block's radius
    (y for sign +1), rho = r^2/2, Psi_a(u) = sum_t (-1)^t u^t / (t! (a)_t)."""
    x, y = v[:p], v[p:]
    rsq_x, rsq_y = sum(t**2 for t in x), sum(t**2 for t in y)

    def move(h, var, block, rsq, kind):
        if kind == "d":
            return sympy.diff(h, var)
        deg = sympy.Poly(h, *block).total_degree()
        return sympy.expand(var * h - rsq * sympy.diff(h, var) / (2 * deg + len(block) - 2))

    total = 0
    for weight, radial, num, den, kappa, e in rows:
        kind_x, kind_y = (weight, radial) if sign == 1 else (radial, weight)
        hx = move(h1, x[i - 1], x, rsq_x, kind_x)
        hy = move(h2, y[j - 1], y, rsq_y, kind_y)
        kappa = sympy.Rational(kappa.numerator, kappa.denominator)
        rho_s = (rsq_y if sign == 1 else rsq_x) / 2
        psi = sum(
            (-1) ** t * (rsq_x * rsq_y / 4) ** t / (sympy.factorial(t) * sympy.rf(kappa, t))
            for t in range(top // 4 + 1)
        )
        coeff = sympy.Rational(num.numerator, num.denominator) / sympy.Rational(
            den.numerator, den.denominator
        )
        total += coeff * hx * hy * rho_s**e * psi
    return _truncated(total, v, top)


def _truncated(expr, v, top):
    poly = sympy.Poly(sympy.expand(expr), *v)
    return {exps: c for exps, c in poly.terms() if sum(exps) <= top and c}


def _mixed_action_verdicts(params, D, v):
    """Yield (oracle, package) verdicts of the mixed action at every (i, j)
    of the first element of each K-type with k, l <= 2: x_i y_j F + d_{x_i}
    d_{y_j} F against the layers of ModuleParams.layers, monomial by
    monomial up to degree D - 2, with F restated by _oracle_typical, and
    the verdict of p_action_check's step at (i, j) for the whole series."""
    from gkverify.gkmodule import _action_at
    from truncated_reference import first_samples

    p, q = params.p, params.q
    for kt, h1p, h2p in first_samples(params, 2, 2):
        h1, h2 = _sympy_poly(h1p, v), _sympy_poly(h2p, v)
        terms = _oracle_typical(p, q, params.m, params.sign, h1, h2, D, v)
        F = sympy.Poly.from_dict(terms, *v).as_expr()
        memo = {}
        for i in range(1, p + 1):
            for j in range(1, q + 1):
                xi, yj = v[i - 1], v[p + j - 1]
                lhs = _truncated(xi * yj * F + sympy.diff(F, xi, yj), v, D - 2)
                rows = params.layers(kt)
                rhs = _oracle_layers_side(p, params.sign, rows, h1, h2, i, j, D - 2, v)
                yield lhs == rhs, _action_at(params, kt, h1p, h2p, i, j, memo)


@pytest.mark.parametrize("sign", [1, -1])
def test_mixed_action_layers_match_sympy(sign):
    # (2,4,0): both sides of the four-layer identity restated in sympy from
    # the documented formulas; only the harmonics and the layer rows come
    # from the package, and p_action_check must give the oracle's verdict
    from gkverify.gkmodule import ModuleParams, p_action_check
    from truncated_reference import first_samples

    v = _symbols(VariableSpace(2, 4))
    params = ModuleParams(2, 4, 0, sign)
    verdicts = list(_mixed_action_verdicts(params, 10, v))
    assert len(verdicts) == 2 * 8
    assert all(oracle and package for oracle, package in verdicts)
    assert all(p_action_check(params, h1, h2) is None for _, h1, h2 in first_samples(params, 2, 2))


# rows 1 and 2 have num = 0 on the whole m = 0 window, so their sign flips
# are read at (2,6,1), each in a family where it carries a nonzero num, at
# a smaller depth to keep the eight-variable sympy sums short
_LAYER_MUTANTS = [
    ((2, 4, 0, 1), 10, 0, "num"), ((2, 6, 1, -1), 8, 1, "num"), ((2, 6, 1, 1), 8, 2, "num"),
    ((2, 4, 0, 1), 10, 3, "num"), ((2, 4, 0, 1), 10, 0, "kappa"),
]


@pytest.mark.parametrize(
    "family,D,row,field", _LAYER_MUTANTS, ids=["flip0", "flip1", "flip2", "flip3", "kappa0"]
)
def test_a_wrong_layer_row_fails_the_sympy_oracle(monkeypatch, family, D, row, field):
    # a sign-flipped row, or kappa + 1 in row 0, fails the oracle at some
    # (i, j), and p_action_check agrees at every (i, j) read up to there
    from gkverify.gkmodule import ModuleParams

    real = ModuleParams.layers

    def layers(self, kt):
        rows = list(real(self, kt))
        old = getattr(rows[row], field)
        rows[row] = rows[row]._replace(**{field: -old if field == "num" else old + 1})
        return tuple(rows)

    monkeypatch.setattr(ModuleParams, "layers", layers)
    v = _symbols(VariableSpace(*family[:2]))
    for oracle, package in _mixed_action_verdicts(ModuleParams(*family), D, v):
        assert oracle == package
        if not oracle:
            return
    pytest.fail("the mutated layer table passed the oracle")


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("p,q,m", [(3, 3, 0), (4, 4, 1)])
def test_harmonic_obstruction_system_matches_sympy(p, q, m, sign):
    # the obstruction's harmonic system restated in sympy: unknowns c_ij for
    # the rotations v_i d_j - v_j d_i inside each block and lambda, and for
    # every default sample the coefficients of sum c_ij (v_i d_j - v_j d_i)
    # (h1 h2) + (lambda - Xi) h1 h2; only the harmonics and the Xi values
    # come from the package, and linsolve must agree with `exists`
    from gkverify.gkmodule import ModuleParams, default_samples, garfinkle_obstruction

    params = ModuleParams(p, q, m, sign)
    v = _symbols(params.space)
    pairs = [
        (v[i], v[j])
        for block in (range(p), range(p, p + q))
        for i, j in itertools.combinations(block, 2)
    ]
    cs = sympy.symbols(f"c0:{len(pairs)}")
    lam = sympy.Symbol("lam")
    equations = []
    for kt, h1, h2 in default_samples(params):
        h = sympy.expand(_sympy_poly(h1, v) * _sympy_poly(h2, v))
        xi = params.scalar("xi", kt)
        rotated = sum(
            c * (a * sympy.diff(h, b) - b * sympy.diff(h, a)) for c, (a, b) in zip(cs, pairs)
        )
        e = sympy.expand(rotated + (lam - sympy.Rational(xi.numerator, xi.denominator)) * h)
        equations.extend(sympy.Poly(e, *v).coeffs())
    solutions = sympy.linsolve(equations, [*cs, lam])
    exists = solutions != sympy.EmptySet
    assert exists == (m == 0)
    assert garfinkle_obstruction(p, q, m).exists == exists


def _label_rule_mismatches(p, q, label_rule):
    """Yield (block, k, a, kind) wherever sympy's image of h (r^2)^a differs
    from the rule's, for every harmonic basis element h of degree k <= 3 of
    either block and every a <= 3.  label_rule(kind, a, k, n) gives the rows
    (s, den, moved, a') of E, R and L, and of V (v times) and D (d_v) for
    each variable v of the block: the image is the sum of s/den times the
    moved harmonic times (r^2)^a', moved being h ("h"), the harmonic part V
    of v h ("v") or d_v h ("d").  V is v h - r^2 d_v h / (2k + n - 2), and
    sympy checks that it is harmonic."""
    from gkverify.poly import harmonic_basis

    space = VariableSpace(p, q)
    v = _symbols(space)
    for block, names in (("x", v[:p]), ("y", v[p:])):
        n = len(names)
        ring, *vs = sympy.ring(names, sympy.QQ)
        r2 = sum(t**2 for t in vs)
        powers = [r2**a for a in range(5)]

        def lap(g):
            return sum((g.diff(t).diff(t) for t in vs), ring.zero)

        def times(g, a):
            # g (r^2)^a, zero for a < 0 (where every rule's s is zero)
            return g * powers[a] if a >= 0 else ring.zero

        def wrong(kind, image, a, k, moved):
            want = ring.zero
            for s, den, m, a2 in label_rule(kind, a, k, n):
                want += times(moved[m], a2) * sympy.QQ(s, den)
            return image != want

        for k in range(4):
            for h in harmonic_basis(space, block, k):
                hp = ring(_sympy_poly(h, v))
                for a in range(4):
                    g = times(hp, a)
                    images = {"E": sum(t * g.diff(t) for t in vs), "R": r2 * g, "L": lap(g)}
                    for kind, image in images.items():
                        if wrong(kind, image, a, k, {"h": hp}):
                            yield block, k, a, kind
                    for t in vs:
                        d = hp.diff(t)
                        harmonic = t * hp
                        if k:
                            harmonic -= r2 * d * sympy.QQ(1, 2 * k + n - 2)
                        assert lap(harmonic) == 0
                        moved = {"v": harmonic, "d": d}
                        for kind, image in (("V", t * g), ("D", g.diff(t))):
                            if wrong(kind, image, a, k, moved):
                                yield block, k, a, (kind, str(t))


@pytest.mark.parametrize("p,q", [(2, 4), (3, 3)])
def test_label_rules_match_sympy(p, q):
    from gkverify.gkmodule import _label_rule

    assert list(_label_rule_mismatches(p, q, _label_rule)) == []


@pytest.mark.parametrize(
    "mutant", ["L_n_minus_1", "c_over_2k_plus_n", "D_without_2ac", "V_without_c_row"]
)
def test_a_wrong_label_rule_fails_the_sympy_oracle(mutant):
    assert next(_label_rule_mismatches(2, 4, wrong_label_rule(mutant)), None) is not None


def _t_identity(terms, k, l, p, q, kappa, l_rule=None):
    """The whole-series identity sum c * word(f) = 0 on the element of K-type
    (k, l) at mu = 0, restated in t: f has the terms w_j h1 (r_x^2)^j h2
    (r_y^2)^j with w_j / w_(j+1) = -4 (j + 1)(kappa + j) (from c_(j+1) = -c_j
    / ((j + 1)(kappa + j)) and w_j = c_j / 4^j).  A word moves the label (j,
    j) by its net r^2 powers, E multiplies by the degree, R raises the
    power, and L multiplies by 2a (2a + 2 deg h + n - 2) and lowers it
    (l_rule replaces that multiple).  On each diagonal the label whose
    largest term index is t collects term t - d of a word d above the least
    net_x there; divided by w_t, its sum must cancel to 0 as a rational
    function of t.  Returns the per-diagonal results."""
    t = sympy.Symbol("t")
    deg, size = {"x": k, "y": l}, {"x": p, "y": q}
    l_rule = l_rule or (lambda a, hdeg, n: 2 * a * (2 * a + 2 * hdeg + n - 2))
    placed = []
    for c, word in terms:
        net = {"x": 0, "y": 0}
        for factor in word:
            net[factor[1]] += {"E": 0, "R": 1, "L": -1}[factor[0]]
        placed.append((net["x"] - net["y"], net["x"], c, word))
    out = {}
    for diag in {d for d, *_ in placed}:
        words = [(nx, c, word) for d, nx, c, word in placed if d == diag]
        low = min(nx for nx, _, _ in words)
        total = 0
        for nx, c, word in words:
            d = nx - low
            j = t - d
            ratio = sympy.prod([-4 * (j + r + 1) * (kappa + j + r) for r in range(d)])
            a = {"x": j, "y": j}
            s = sympy.Rational(c.numerator, c.denominator)
            for kind, block in reversed(word):
                if kind == "E":
                    s *= deg[block] + 2 * a[block]
                elif kind == "R":
                    a[block] += 1
                else:
                    s *= l_rule(a[block], deg[block], size[block])
                    a[block] -= 1
            total += s * ratio
        out[diag] = sympy.cancel(total)
    return out


def _t_identities(sign, scalar_off=0, l_rule=None):
    """{(k, l, name): nonzero diagonal results} at (2,4,0) for the family of
    the given sign, over its K-types with k, l <= 3: kappa_plus = k + 1 and
    kappa_minus = l + 2 must be equal (m = 0), the series parameter is
    kappa_plus for sign +1 and kappa_minus for sign -1, and mu = 0.  The four
    eigenvalue forms carry their scalars (plus scalar_off) on the empty
    word; the membership steps are H, the killing generator (X+ for sign
    +1, X- for sign -1) and the lowering one (the other), its first power."""
    from gkverify.gkmodule import KType, ModuleParams
    from gkverify.liealg import closed_form

    p, q, m = 2, 4, 0
    params = ModuleParams(p, q, m, sign)
    killer, lower = ("X+", "X-") if sign == 1 else ("X-", "X+")
    out = {}
    for k, l in itertools.product(range(4), repeat=2):
        if k + 1 != l + 2:
            continue
        kappa = k + 1 if sign == 1 else l + 2
        lists = {name: closed_form(name, p, q) for name in ("H", killer, lower)}
        for which in ("op", "oq", "g", "xi"):
            scalar = params.scalar(which, KType(k, l, p, q)) + scalar_off
            lists[which] = closed_form(which, p, q) + ((-scalar, ()),)
        for name, terms in lists.items():
            results = _t_identity(terms, k, l, p, q, kappa, l_rule)
            out[k, l, name] = [r for r in results.values() if r != 0]
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_whole_series_identities_cancel_in_sympy(sign):
    identities = _t_identities(sign)
    assert len(identities) == 3 * 7
    assert all(nonzero == [] for nonzero in identities.values()), identities


@pytest.mark.parametrize("sign", [1, -1])
def test_wrong_scalars_and_rules_leave_a_nonzero_identity(sign):
    forms = ("op", "oq", "g", "xi")
    shifted = _t_identities(sign, scalar_off=1)
    assert all(shifted[key] for key in shifted if key[2] in forms)
    # with n - 1 in the Laplacian rule every identity with an L factor fails:
    # all but the weight step H at (2,4,0)
    wrong = _t_identities(sign, l_rule=lambda a, hdeg, n: 2 * a * (2 * a + 2 * hdeg + n - 3))
    assert {key for key, nonzero in wrong.items() if not nonzero} == {
        key for key in wrong if key[2] == "H"
    }
