"""Truncated expansions of module elements, the tests' reference layer.

The package decides every module identity for the whole series, on the
K-type labels of a sample (kt, h1, h2), and never truncates one.  The tests
compare it with the depth-D path it replaced, kept here:

* first_samples yields the sample with the first harmonics of each K-type
  of a plan, and action_steps runs the package's mixed-action step on a
  sample one (i, j) at a time.
* TruncatedTypical cuts a typical element at total degree D: it holds the
  terms (w_j, a_x, a_y) of degree k + l + 2 a_x + 2 a_y <= D, and forms
  their separated form and expansion when read.
* label_zero_test (on the term lists of eigenvalue_at and
  membership_steps), action_labels_at and p_action_at are the depth-D
  label sums of the zero tests: a closed_form word shifts the
  validity by its factors' smallest |a| - |alpha| (_gain), and every sum is
  read up to the validity of its term list (_validity).
* TruncatedElement is a polynomial exact up to total degree `validity`, and
  apply_operator and closed_apply apply an operator to its expansion up to
  the result's validity v + shift, shift being the operator's smallest
  |a| - |alpha|.  That is exact: the input is exact up to v, and a term
  above v has no image below v + shift; through capped_apply, no term above
  the result's validity is formed.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from gkverify import gkmodule
from gkverify.gkmodule import DegenerateDenominatorError, KType, ModuleParams, psi_series
from gkverify.liealg import STOCK_OPERATORS, Generator, closed_form, closed_operator, pi_generator
from gkverify.poly import ZERO, MultiPoly, VariableSpace, rsq
from gkverify.weyl import WeylOperator
from helpers import shift_rho


class TruncationError(ValueError):
    """Raised when a series cutoff is too small to support a comparison."""


def truncate(poly: MultiPoly, degree: int) -> MultiPoly:
    """poly without its terms of total degree above `degree`."""
    if poly.degree() <= degree:
        return poly
    bound = (degree + 1) << poly.space.deg_shift
    out = {k: c for k, c in poly._terms.items() if k < bound}
    return MultiPoly.reduced(poly.space, out, poly.den)


def default_depth(m: int, kl_max: int) -> int:
    """The depth the module checks worked at on K-types with k + l <=
    kl_max: 2m + 6 + max(6, kl_max), a headroom of 6 over the largest base
    degree k + l + 2m and never below 2m + 12."""
    return 2 * m + 6 + max(6, kl_max)


# -- typical elements cut at a depth ----------------------------------------------


class TruncatedTypical:
    """The typical element of the family `params` with harmonics h1, h2, cut
    at total degree D, exact to degree `validity` = D.  Its K-type is read
    off the harmonics' degrees and must lie in the window, as the package's
    p_action_check requires.  `terms` holds the (w_j, a_x, a_y) with k + l
    + 2 mu + 4 j <= D: the term w_j h1 (r_x^2)^a_x h2 (r_y^2)^a_y with a = j
    + mu on the series block and j on the other, w_j = c_j / 2^(2 j + mu)
    from psi_series."""

    def __init__(self, params: ModuleParams, h1: MultiPoly, h2: MultiPoly, D: int) -> None:
        k = gkmodule._require_block_harmonic(h1, "x")
        kt = KType(k, gkmodule._require_block_harmonic(h2, "y"), params.p, params.q)
        gkmodule._frame(params, kt)
        mu = params.mu(kt)
        base = kt.k + kt.l + 2 * mu
        if D < base:
            raise TruncationError(f"D={D} is below the base degree {base}")
        self.params, self.kt, self.h1, self.h2, self.validity = params, kt, h1, h2, D
        coeffs = psi_series(params.weights(kt)[0], D - base).coeffs
        mx = mu if params.series_block == "x" else 0
        self.terms = tuple(
            (coeffs[j, j] / (1 << (2 * j + mu)), j + mx, j + mu - mx) for j in range(len(coeffs))
        )

    @property
    def space(self) -> VariableSpace:
        return self.h1.space

    @property
    def separated(self):
        """The (w_j, A_j, B_j) with A_j = h1 (r_x^2)^a_x and B_j = h2
        (r_y^2)^a_y."""
        n, (_, ax, ay) = len(self.terms), self.terms[0]
        a, b = _radius_powers(self.h1, "x", ax, n), _radius_powers(self.h2, "y", ay, n)
        return tuple((w, a[j], b[j]) for j, (w, _, _) in enumerate(self.terms))

    @property
    def expansion(self) -> MultiPoly:
        """The sum of the w_j A_j B_j."""
        products = self.separated
        den, out = lcm(*(c.denominator * a.den * b.den for c, a, b in products)), {}
        for c, a, b in products:
            w = c.numerator * (den // (c.denominator * a.den * b.den))
            for ka, ca in a._terms.items():
                for kb, cb in b._terms.items():
                    out[ka + kb] = out.get(ka + kb, 0) + w * ca * cb
        return MultiPoly.reduced(self.space, out, den)


def _radius_powers(h, block, start, n):
    """h (r_block^2)^(start + j) for j < n, by repeated multiplication."""
    r2, out = rsq(h.space, block), [h]
    for _ in range(start + n - 1):
        out.append(out[-1].mul(r2))
    return out[start:]


def first_samples(params: ModuleParams, k_max: int, l_max: int):
    """The sample (kt, h1, h2) with the first harmonics of each K-type of
    ktype_enumeration(params, k_max, l_max), in its order: the samples that
    paction.four_term checks at k_max, l_max <= 2."""
    for kt in gkmodule.ktype_enumeration(params, k_max, l_max):
        yield gkmodule._first_harmonics(params, kt)


def truncated_elements(params: ModuleParams, k_max: int, l_max: int, D: int):
    """first_samples(params, k_max, l_max), each cut at degree D."""
    for _, h1, h2 in first_samples(params, k_max, l_max):
        yield TruncatedTypical(params, h1, h2, D)


def action_steps(g):
    """The package's mixed-action step at (i, j) on the sample of g,
    gkmodule._action_at, as a function of (i, j) whose calls share one
    memo, as the (i, j) of one p_action_check call do."""
    memo = {}
    return lambda i, j: gkmodule._action_at(g.params, g.kt, g.h1, g.h2, i, j, memo)


# -- the depth-D label zero tests ---------------------------------------------------


@lru_cache(maxsize=None)
def _gain(space, word):
    """The validity change of a closed_form word: the sum of its factors'
    smallest |a| - |alpha| (the factors shift every term alike)."""
    return sum(STOCK_OPERATORS[kind](space, block).min_degree_shift() for kind, block in word)


def _validity(terms, g) -> int:
    """The validity of the sum of c * word(g) over the (c, word) terms: the
    smallest g.validity + _gain(word).  Raises TruncationError when some
    factor, applied rightmost first, would leave a negative validity."""
    space = g.space
    # word[i:] is the part of a word applied once its factor i has acted
    lowest = min(_gain(space, word[i:]) for _, word in terms for i in range(len(word) + 1))
    if g.validity + lowest < 0:
        raise TruncationError("validity became negative; increase D")
    return min(g.validity + _gain(space, word) for _, word in terms)


def label_zero_test(terms, g):
    """(whether sum c * word(g) vanishes up to its validity, that validity),
    the Fraction multiples c w_j s summed per label (a_x, a_y) of degree k +
    l + 2 a_x + 2 a_y up to the validity, each factor by its one row of the
    package's gkmodule._label_rule."""
    top = _validity(terms, g)
    kt, space = g.kt, g.space
    degree, size = {"x": kt.k, "y": kt.l}, {"x": space.p, "y": space.q}
    sums = {}
    for c, word in terms:
        for w, ax, ay in g.terms:
            s, a = c * w, {"x": ax, "y": ay}
            for kind, block in reversed(word):
                ((t, den, _, a[block]),) = gkmodule._label_rule(
                    kind, a[block], degree[block], size[block]
                )
                s *= Fraction(t, den)
            if kt.k + kt.l + 2 * (a["x"] + a["y"]) > top:
                break  # the degree grows with j
            key = a["x"], a["y"]
            sums[key] = sums.get(key, ZERO) + s
    return not any(sums.values()), top


def eigenvalue_at(which, g):
    """(ok, validity) of eigenvalue_check(which) on the cut element g."""
    scalar = g.params.scalar(which, g.kt)
    terms = gkmodule._minus_identity(closed_form(which, g.space.p, g.space.q), scalar)
    return label_zero_test(terms, g)


def membership_steps(params: ModuleParams):
    """The term lists of verify_membership's three steps: H - sign m, the
    killing generator and the (m+1)-th power of the lowering one."""
    p, q, m = params.p, params.q, params.m
    killer, lower = params.sl2_roles
    return (
        gkmodule._minus_identity(closed_form("H", p, q), params.sign * m),
        closed_form(killer, p, q),
        gkmodule._power(closed_form(lower, p, q), m + 1),
    )


def action_labels_at(g):
    """The depth-D label sums of p_action_check, as {(kind_x, a_x, kind_y,
    a_y): multiple} up to v = g.validity - 2: a term w h1 (r_x^2)^a h2
    (r_y^2)^b of g gives x_i y_j of it (if of degree <= v) and d_{y_j}
    d_{x_i} of it, each block by the V and D rows of gkmodule._label_rule;
    a layer num/den F_x h1 F_y h2 rho_s^e Psi_kappa gives -num/den c /
    2^(a + b) at (kind_x, a, kind_y, b) for each term c rho_x^a rho_y^b of
    its series up to degree v - deg F_x h1 - deg F_y h2."""
    params, kt, v = g.params, g.kt, g.validity - 2
    p, q = params.p, params.q
    sums = {}
    for w, ax, ay in g.terms:
        near = kt.k + kt.l + 2 * (ax + ay) + 2 <= v
        for kind in ("V", "D") if near else ("D",):
            for sx, den_x, kx, bx in gkmodule._label_rule(kind, ax, kt.k, p):
                for sy, den_y, ky, by in gkmodule._label_rule(kind, ay, kt.l, q):
                    key = kx, bx, ky, by
                    sums[key] = sums.get(key, ZERO) + w * Fraction(sx * sy, den_x * den_y)
    for layer in params.layers(kt):
        kinds = {params.weight_block: layer.weight, params.series_block: layer.radial}
        kx, ky = kinds["x"], kinds["y"]
        dx, dy = kt.k + (1 if kx == "v" else -1), kt.l + (1 if ky == "v" else -1)
        e, reach = layer.exponent, v - dx - dy
        if not (layer.den and layer.num) or min(dx, dy) < 0 or reach < 2 * e:
            continue
        series = shift_rho(psi_series(layer.kappa, reach - 2 * e), params.series_block, e)
        for (a, b), c in series.coeffs.items():
            key = kx, a, ky, b
            sums[key] = sums.get(key, ZERO) - layer.num / layer.den * c / (1 << (a + b))
    return sums


def p_action_at(g, i, j):
    """p_action_check's step at (i, j) on the label sums of
    action_labels_at, at validity g.validity - 2: the same operator step,
    Fischer lemmas, "d" drops and DegenerateDenominatorError guard."""
    params, kt = g.params, g.kt
    if g.validity < 2:
        raise TruncationError("validity became negative; increase D")
    space = params.space
    xi, yj = i - 1, params.p + j - 1
    xy = space.unit_key(xi) + space.unit_key(yj)
    op = pi_generator(Generator(i, params.p + j, "M"), space).scale(-1)
    if op != WeylOperator(space, {(xy, 0): 1, (0, xy): 1}):
        return False
    sums = action_labels_at(g)
    no_d = {}
    for block, var in (("x", xi), ("y", yj)):
        h = g.h1 if block == "x" else g.h2
        lemma, no_d[block] = gkmodule._fischer(params, kt, h, var)
        if not lemma:
            return False
    for layer in params.layers(kt):
        kinds = {params.weight_block: layer.weight, params.series_block: layer.radial}
        if layer.den == 0 and not any(kinds[b] == "d" and no_d[b] for b in "xy"):
            raise DegenerateDenominatorError(
                f"coefficient denominator vanished at K-type (k={kt.k}, l={kt.l})"
            )
    return not any(
        s for (kx, _, ky, _), s in sums.items()
        if not (kx == "d" and no_d["x"] or ky == "d" and no_d["y"])
    )


# -- truncated expansions --------------------------------------------------------------


class TruncatedElement:
    """A polynomial truncation of a series, exact up to total degree `validity`."""

    __slots__ = ("expansion", "validity")

    def __init__(self, expansion: MultiPoly, validity: int) -> None:
        if validity < 0:
            raise TruncationError("validity became negative; increase D")
        self.expansion = truncate(expansion, validity)
        self.validity = validity

    @property
    def space(self) -> VariableSpace:
        return self.expansion.space

    def is_zero(self) -> bool:
        return self.expansion.is_zero()

    def __add__(self, other: "TruncatedElement") -> "TruncatedElement":
        v = min(self.validity, other.validity)
        return TruncatedElement(self.expansion + other.expansion, v)

    def __sub__(self, other: "TruncatedElement") -> "TruncatedElement":
        v = min(self.validity, other.validity)
        return TruncatedElement(self.expansion - other.expansion, v)

    def scale(self, c) -> "TruncatedElement":
        return TruncatedElement(self.expansion.scale(c), self.validity)

    def agrees_with(self, other: "TruncatedElement") -> bool:
        """Equality of the two stored series up to the smaller validity."""
        v = min(self.validity, other.validity)
        return truncate(self.expansion, v) == truncate(other.expansion, v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.expansion)} terms, validity={self.validity})"


def truncated(g) -> TruncatedElement:
    """A cut typical (or truncated) element as its expansion, at its validity."""
    return TruncatedElement(g.expansion, g.validity)


def capped_apply(op: WeylOperator, poly: MultiPoly, cap: int) -> MultiPoly:
    """truncate(op(poly), cap), forming no term above cap: the terms of op
    that shift the degree by s read only the terms of poly up to cap - s."""
    ds, groups = op.space.deg_shift, {}
    for (km, ka), c in op._terms.items():
        groups.setdefault((km >> ds) - (ka >> ds), {})[km, ka] = c
    out = MultiPoly.zero(op.space)
    for s, terms in groups.items():
        part = WeylOperator.reduced(op.space, terms, op.den)
        out = out + part.apply(truncate(poly, cap - s))
    return out


def apply_operator(op, g) -> TruncatedElement:
    """op(g) at validity g.validity + op.min_degree_shift(); a negative
    validity raises TruncationError."""
    validity = g.validity + op.min_degree_shift()
    return TruncatedElement(capped_apply(op, g.expansion, validity), validity)


def closed_apply(which: str, g) -> TruncatedElement:
    """A closed form of liealg.closed_form (a Casimir, Xi or an sl2
    generator) applied as the composed closed_operator, at the validity and
    with the TruncationError guard of the depth-D zero tests (_validity)."""
    space = g.space
    top = _validity(gkmodule.closed_form(which, space.p, space.q), g)
    return TruncatedElement(capped_apply(closed_operator(space, which), g.expansion, top), top)
