"""Highest- and lowest-weight families inside the oscillator representation.

The commuting sl2 triple (H, X_raise, X_lower) splits polynomial-coefficient
series into finite-dimensional isotypic families.  For a non-negative integer
m the two families handled here are

* sign +1: elements with H f = m f, X_raise f = 0, X_lower^(m+1) f = 0;
* sign -1: elements with H f = -m f, X_lower f = 0, X_raise^(m+1) f = 0.

A typical element is  h1 * h2 * rho_y^mu * Psi_kappa(rho_x rho_y)  (sign +1,
with the roles of the blocks swapped for sign -1), where h1, h2 are block
harmonics of degrees k, l, the shifted weights are kappa_plus = k + p/2 and
kappa_minus = l + q/2, and Psi_alpha(u) = sum_j (-1)^j / (j! (alpha)_j) u^j.
ModuleParams holds that family rule and is the only code that reads the sign:
the series block, the series and partner weights, mu, the killing and
lowering sl2 generators, and the four-row table of the mixed action.

All series work is truncated at an explicit total degree D, and every
comparison records its validity: the degree up to which stored coefficients
are exact.  One rule tracks it: applying an operator adds the smallest
|a| - |alpha| over its terms v^a d^alpha.  apply_operator uses it for a whole
operator, and closed_apply, which runs the closed forms of liealg.closed_form
(the Casimirs, the symmetric-square element Xi and the sl2 triple), uses it
for each factor (an Euler operator adds 0, a Laplacian -2, a multiplication
by r^2 +2).  closed_apply evaluates the words made only of Euler factors in
one diagonal pass, since they scale each monomial by a polynomial in its
block degrees, and the other words factor by factor.  Both fix the result's
validity before computing anything and never form a term above it:
apply_operator passes it to WeylOperator.apply as the cap, and closed_apply
lets each factor read its input only up to the degree that the factors left
of it carry to that validity.  The obstruction solver caps its generator
images the same way, at the degree it compares.  The radial factor
rho^mu Psi_kappa of a typical element or of a mixed-action layer is expanded
once per (kappa, mu, block, space, degree reach) and memoized.

A TypicalElement carries its family, K-type and harmonics, and the sample
plans ktype_elements and product_elements yield them one at a time.
eigenvalue_check compares closed_apply(which, f) with
ModuleParams.scalar(which, f.kt) f, one path for all four eigenvalues,
verify_membership checks the defining conditions of f's family, and
p_action_check expands the mixed action on f; all three refuse other
elements.

The obstruction solver at the bottom asks, over the default sample of typical
elements f, whether some pair (Y, lambda) of a Lie-algebra element and a
scalar satisfies pi(Y) f + lambda f = lambda_kappa(f) f for every sample,
where lambda_kappa is the symmetric-square eigenvalue.  It returns either a
witness verified against every sampled equation or an exact infeasibility
certificate; infeasibility of the truncated subsystem is an exact conclusion
about the full system.  A sample too small to decide the question raises
DegenerateSampleError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .liealg import STOCK_OPERATORS, Generator, closed_form, generators, pi_generator
from .linalg import SparseRREF
from .poly import (
    BITS,
    MAX_EXP,
    ZERO,
    MultiPoly,
    RadialSeries,
    TruncationError,
    VariableSpace,
    dagger,
    euler,
    exact,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rsq,
)

__all__ = [
    "KType",
    "ActionLayer",
    "ModuleParams",
    "TruncatedElement",
    "TypicalElement",
    "PsiPoleError",
    "DegenerateDenominatorError",
    "DegenerateSampleError",
    "psi_series",
    "typical_element",
    "ktype_elements",
    "product_elements",
    "apply_operator",
    "closed_apply",
    "verify_membership",
    "eigenvalue_check",
    "p_action_check",
    "ktype_enumeration",
    "default_depth",
    "default_solver_depth",
    "default_samples",
    "garfinkle_obstruction",
    "MembershipReport",
    "EigenvalueReport",
    "ObstructionResult",
]


class PsiPoleError(ValueError):
    """The series parameter hit a pole (a non-positive integer)."""


class DegenerateDenominatorError(ZeroDivisionError):
    """A coefficient denominator in the mixed-generator expansion vanished."""


class DegenerateSampleError(ValueError):
    """The sampled elements cannot decide the obstruction question."""


@dataclass(frozen=True)
class KType:
    """Joint harmonic bidegree (k, l) with its shifted weights."""

    k: int
    l: int
    p: int
    q: int

    def __post_init__(self) -> None:
        if self.k < 0 or self.l < 0:
            raise ValueError(f"need k, l >= 0, got k={self.k}, l={self.l}")

    @property
    def kappa_plus(self) -> Fraction:
        return Fraction(2 * self.k + self.p, 2)

    @property
    def kappa_minus(self) -> Fraction:
        return Fraction(2 * self.l + self.q, 2)

    @property
    def multiplicity(self) -> int:
        return harmonic_dim(self.p, self.k) * harmonic_dim(self.q, self.l)


class ActionLayer(NamedTuple):
    """One term, num/den * F_w F_s * rho^exponent Psi_kappa, of the mixed action.

    F_w and F_s act on the harmonic of the weight and of the series block as
    `weight` and `radial` say: "d" differentiates it, "v" takes dagger(v h).
    """

    weight: str
    radial: str
    num: Fraction
    den: Fraction
    kappa: Fraction
    exponent: int


@dataclass(frozen=True)
class ModuleParams:
    """Family parameters; sign +1 selects the H-eigenvalue +m family.

    The methods below are the only code that reads the sign.
    """

    p: int
    q: int
    m: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.p < 2 or self.q < 2:
            raise ValueError("need p >= 2 and q >= 2")
        if (self.p + self.q) % 2 != 0:
            raise ValueError("need p + q even")
        if self.m < 0:
            raise ValueError("need m >= 0")
        if self.m + 3 > (self.p + self.q) // 2:
            raise ValueError("need m + 3 <= (p + q)/2")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def space(self) -> VariableSpace:
        return VariableSpace(self.p, self.q)

    @property
    def series_block(self) -> str:
        """The block whose radius carries rho^mu: "y" for +1, "x" for -1."""
        return "y" if self.sign == 1 else "x"

    @property
    def weight_block(self) -> str:
        return "x" if self.sign == 1 else "y"

    @property
    def sl2_roles(self) -> Tuple[str, str]:
        """The closed-form names of the killing and the lowering generator."""
        return ("X+", "X-") if self.sign == 1 else ("X-", "X+")

    def weights(self, kt: KType) -> Tuple[Fraction, Fraction]:
        """(kappa_s, kappa_o): the weight-block weight, which parameterises
        Psi, and the series-block weight."""
        if self.sign == 1:
            return kt.kappa_plus, kt.kappa_minus
        return kt.kappa_minus, kt.kappa_plus

    def allows(self, kt: KType) -> bool:
        """kappa_plus - kappa_minus is one of -m, -m+2, ..., m."""
        d = kt.kappa_plus - kt.kappa_minus
        return d.denominator == 1 and abs(d) <= self.m and (self.m + d) % 2 == 0

    def mu(self, kt: KType) -> int:
        """Radial exponent at this K-type, (m + kappa_s - kappa_o)/2."""
        if not self.allows(kt):
            raise ValueError(f"(k={kt.k}, l={kt.l}) is not a K-type of this family")
        s, o = self.weights(kt)
        return int((self.m + s - o) / 2)

    def layers(self, kt: KType) -> Tuple[ActionLayer, ...]:
        """The four terms of the mixed action on the family's elements of
        K-type kt, with kappa_s, kappa_o = weights(kt) and mu = mu(kt)."""
        s, o = self.weights(kt)
        mu = self.mu(kt)
        return (
            ActionLayer("d", "d", o + mu - 1, o - 1, s - 1, mu),
            ActionLayer("d", "v", Fraction(mu), Fraction(1), s - 1, mu - 1),
            ActionLayer("v", "d", s - o - mu, s * (o - 1), s + 1, mu + 1),
            ActionLayer("v", "v", s - mu - 1, s, s + 1, mu),
        )

    # -- scalar spectra -----------------------------------------------------

    def scalar(self, which: str, kt: Optional[KType] = None) -> Fraction:
        """The eigenvalue of the closed form `which` (a liealg.closed_form
        name: "op", "oq", "g" or "xi") on the family's elements of K-type kt.

        The full Casimir acts by one scalar on the whole family, so "g" needs
        no K-type.
        """
        p, q, n, c = self.p, self.q, self.n, self.m * (self.m + 2)
        table = {"g": Fraction(c) - Fraction(n * n, 4) + n}
        if kt is not None:
            kp, km = kt.kappa_plus, kt.kappa_minus
            table["op"] = (kp - 1) ** 2 - Fraction((p - 2) ** 2, 4)
            table["oq"] = (km - 1) ** 2 - Fraction((q - 2) ** 2, 4)
            table["xi"] = (kp - km) * (kp + km - 2) - Fraction(p - q, n) * c
        if which not in table:
            raise ValueError(f"no eigenvalue is known for {which!r} at K-type {kt}")
        return table[which]


class TruncatedElement:
    """A polynomial truncation of a series, exact up to total degree `validity`."""

    __slots__ = ("expansion", "validity")

    def __init__(self, expansion: MultiPoly, validity: int) -> None:
        if validity < 0:
            raise TruncationError("validity became negative; increase D")
        self.expansion = expansion.truncate(validity)
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
        return self.expansion.truncate(v) == other.expansion.truncate(v)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({len(self.expansion)} terms, "
            f"validity={self.validity})"
        )


class TypicalElement(TruncatedElement):
    """h1 h2 rho^mu Psi_kappa of the family `params` at K-type `kt`.

    Only typical_element builds one.  Sums and multiples are plain
    TruncatedElements: they have no single K-type.
    """

    __slots__ = ("params", "kt", "h1", "h2")

    def __init__(self, expansion: MultiPoly, validity: int, params: ModuleParams,
                 kt: KType, h1: MultiPoly, h2: MultiPoly) -> None:
        super().__init__(expansion, validity)
        self.params, self.kt, self.h1, self.h2 = params, kt, h1, h2


def _require_typical(f) -> TypicalElement:
    if not isinstance(f, TypicalElement):
        raise TypeError(f"need a TypicalElement, got {type(f).__name__}")
    return f


def psi_series(alpha: Fraction, cutoff: int) -> RadialSeries:
    """The exact series sum_j (-1)^j / (j! (alpha)_j) (rho_x rho_y)^j.

    Coefficients satisfy c_0 = 1 and c_{j+1} = -c_j / ((j+1)(alpha+j)); the
    parameter must be an int or a Fraction avoiding the poles at non-positive
    integers.
    """
    alpha = Fraction(exact(alpha))
    if alpha.denominator == 1 and alpha <= 0:
        raise PsiPoleError(f"series parameter {alpha} is a non-positive integer")
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    c = Fraction(1)
    j = 0
    while 4 * j <= cutoff:
        coeffs[(j, j)] = c
        c = -c / ((j + 1) * (alpha + j))
        j += 1
    return RadialSeries(coeffs, cutoff)


def _require_block_harmonic(h: MultiPoly, block: str) -> int:
    other = "y" if block == "x" else "x"
    if h.block_homogeneous_degree(other) != 0:
        raise ValueError(f"factor must involve only the {block} block")
    deg = h.block_homogeneous_degree(block)
    if not laplacian(h, block).is_zero():
        raise ValueError(f"factor of degree {deg} is not {block}-harmonic")
    return deg


def _radial_layer(
    kappa: Fraction, mu: int, block: str, h: MultiPoly, validity: int
) -> MultiPoly:
    """The expansion of h * rho_block^mu * Psi_kappa, exact to `validity`,
    for a nonzero homogeneous h.

    The radial factor depends on h only through its degree, so it comes
    from the memo _radial_expansion, and h.mul is the only work per call.
    """
    reach = validity - h.degree()
    if reach < 2 * mu:
        return MultiPoly.zero(h.space)
    series = _radial_expansion(kappa, mu, block, h.space, reach)
    return h.mul(series, max_degree=validity)


@lru_cache(maxsize=None)
def _radial_expansion(
    kappa: Fraction, mu: int, block: str, space: VariableSpace, reach: int
) -> MultiPoly:
    """rho_block^mu * Psi_kappa expanded exactly to degree reach >= 2 mu.

    Memoized, as harmonic_basis is; a PsiPoleError is raised on every call
    and never cached.
    """
    return psi_series(kappa, reach - 2 * mu).shift_rho(block, mu).expand(space, reach)


def typical_element(
    params: ModuleParams, h1: MultiPoly, h2: MultiPoly, D: int
) -> TypicalElement:
    """h1 h2 rho^mu Psi_kappa truncated at total degree D.

    h1 must be a pure-x harmonic, h2 a pure-y harmonic; their degrees fix the
    K-type, which must lie in the family's window (both radial exponents
    non-negative integers).
    """
    k = _require_block_harmonic(h1, "x")
    l = _require_block_harmonic(h2, "y")
    kt = KType(k, l, params.p, params.q)
    mu = params.mu(kt)
    base = k + l + 2 * mu
    if D < base:
        raise TruncationError(f"D={D} is below the base degree {base}")
    kappa = params.weights(kt)[0]
    expansion = _radial_layer(kappa, mu, params.series_block, h1.mul(h2), D)
    return TypicalElement(expansion, D, params, kt, h1, h2)


# -- operator application -------------------------------------------------------


def apply_operator(op, f: TruncatedElement) -> TruncatedElement:
    """Generic application with the exact validity rule.

    The new validity is the old one plus the smallest |a| - |alpha| over the
    operator's terms v^a d^alpha; a negative result raises TruncationError.
    The operator is applied with that validity as its cap, so no term above
    it is formed.
    """
    validity = f.validity + op.min_degree_shift()
    return TruncatedElement(op.apply(f.expansion, max_degree=validity), validity)


# Fast appliers of the stock factors of closed_form words, by kind.
_STAGES = {
    "E": euler,
    "L": laplacian,
    "R": lambda g, block: g.mul(rsq(g.space, block)),
}


@lru_cache(maxsize=None)
def _gain(space: VariableSpace, word: Tuple[str, ...]) -> int:
    """The validity change of a closed_form word: the sum of its factors'
    smallest |a| - |alpha| (the factors shift every term alike)."""
    return sum(
        STOCK_OPERATORS[kind](space, block).min_degree_shift() for kind, block in word
    )


def closed_apply(which: str, f: TruncatedElement) -> TruncatedElement:
    """Apply a closed form of liealg.closed_form (a Casimir, Xi or an sl2
    generator).

    Words made only of Euler factors, the empty word among them, act
    diagonally on monomials and are evaluated together in one pass
    (_euler_pass).  The other words are applied factor by factor, rightmost
    first, with the fast polynomial helpers; each factor's validity follows
    the exact rule of apply_operator, and a factor that leaves a negative
    validity raises TruncationError.  The result's validity T, the smallest
    over the words, is fixed first, and each factor reads its input only up
    to the degree that the factors left of it carry to T, so no term above T
    is formed.
    """
    space = f.space
    terms = closed_form(which, space.p, space.q)
    # word[i:] is the part of a word applied once its factor i has acted
    lowest = min(_gain(space, word[i:]) for _, word in terms for i in range(len(word) + 1))
    if f.validity + lowest < 0:
        raise TruncationError("validity became negative; increase D")
    validity = min(f.validity + _gain(space, word) for _, word in terms)
    return TruncatedElement(_apply_words(terms, f.expansion, validity), validity)


def _apply_words(terms, g: MultiPoly, top: int) -> MultiPoly:
    """The sum of c * word(g) over the (c, word) terms, exact up to degree top.

    The words made only of Euler factors go through one _euler_pass, which
    reads g up to top.  Of the others, words that end in the same factor
    share its application, and only the results on the current branch are
    kept alive.  That factor reads g up to the largest degree that the rest
    of one of those words carries to top.
    """
    space = g.space
    total = None
    diagonal = []
    by_last: Dict[str, list] = {}
    for c, word in terms:
        if all(factor[0] == "E" for factor in word):
            diagonal.append((c, word))
        else:
            by_last.setdefault(word[-1], []).append((c, word[:-1]))
    if diagonal:
        total = _euler_pass(diagonal, g, top)
    for factor, rest in by_last.items():
        reach = max(top - _gain(space, word) for _, word in rest)
        stage_in = g.truncate(reach - _gain(space, (factor,)))
        kind, block = factor
        part = _apply_words(rest, _STAGES[kind](stage_in, block), top)
        total = part if total is None else total + part
    return total


def _euler_pass(terms, g: MultiPoly, top: int) -> MultiPoly:
    """The sum of c * word(g) over (c, word) terms whose words have only
    Euler factors, up to degree top.

    Such a word with a factors Ex and b factors Ey multiplies a monomial of
    block degrees (d_x, d_y) by d_x^a d_y^b, so the sum multiplies it by
    one scalar, a polynomial in (d_x, d_y) with int numerators over one
    common denominator.  The scalar is computed once per (d_x, d_y), and g
    is read only up to top.
    """
    if len(terms) == 1 and not terms[0][1]:
        # the identity alone, left at the end of every other word, needs no
        # block degrees
        return g.truncate(top).scale(terms[0][0])
    space = g.space
    den = lcm(*(c.denominator for c, _ in terms))
    weights: Dict[Tuple[int, int], int] = {}
    for c, word in terms:
        a = word.count("Ex")
        ab = (a, len(word) - a)
        weights[ab] = weights.get(ab, 0) + c.numerator * (den // c.denominator)
    ds = space.deg_shift
    shift, mask, spread, high = space.block_sum("x")
    scalars: Dict[int, int] = {}
    out: Dict[int, int] = {}
    for k, v in g._terms.items():
        d = k >> ds
        if d > top:
            continue
        dx = (((k >> shift) & mask) * spread >> high) & MAX_EXP
        key = d << BITS | dx  # (d, dx) as one int
        s = scalars.get(key)
        if s is None:
            dy = d - dx
            s = scalars[key] = sum(w * dx**a * dy**b for (a, b), w in weights.items())
        if s:
            out[k] = v * s
    return MultiPoly.reduced(space, out, g.den * den)


# -- module checks ----------------------------------------------------------------


@dataclass
class MembershipReport:
    weight_ok: bool
    annihilated_ok: bool
    power_ok: bool
    validity: int

    @property
    def ok(self) -> bool:
        return self.weight_ok and self.annihilated_ok and self.power_ok


def verify_membership(f: TypicalElement) -> MembershipReport:
    """Check the three defining conditions of f's family on f.

    Requires enough validity that the weakest check still sees degree m + 4;
    raises TruncationError otherwise.  The reported validity is that of the
    weakest check, the (m+1)-fold lowering.
    """
    params = _require_typical(f).params
    m = params.m
    power_validity = f.validity - 2 * (m + 1)
    if min(f.validity - 2, power_validity) < m + 4:
        raise TruncationError(
            f"validity {f.validity} too small for the m={m} membership checks"
        )
    hf = closed_apply("H", f)
    weight_ok = hf.agrees_with(f.scale(params.sign * m))
    killer, lower = params.sl2_roles
    annihilated_ok = closed_apply(killer, f).is_zero()
    g = f
    for _ in range(m + 1):
        g = closed_apply(lower, g)
    power_ok = g.is_zero()
    return MembershipReport(weight_ok, annihilated_ok, power_ok, power_validity)


@dataclass
class EigenvalueReport:
    name: str
    scalar: Fraction
    ok: bool
    validity: int


def eigenvalue_check(which: str, f: TypicalElement) -> EigenvalueReport:
    """Does the closed form `which` act on f by its scalar at f's K-type?"""
    _require_typical(f)
    scalar = f.params.scalar(which, f.kt)
    applied = closed_apply(which, f)
    ok = applied.agrees_with(f.scale(scalar))
    return EigenvalueReport(which, scalar, ok, applied.validity)


# -- mixed-generator action ---------------------------------------------------------


def p_action_check(f: TypicalElement, i: int, j: int) -> bool:
    """Verify the four-layer expansion of the mixed generator action on f.

    Compares -pi(M_{i, p+j}) f = (x_i y_j + d_{x_i} d_{y_j}) f, applied
    directly, against the closed four-term combination of shifted harmonic
    layers of f.params.layers(f.kt) built from f's harmonics, exactly at
    validity f.validity - 2
    (1-based i <= p, j <= q).  This is sqrt(-1) pi(X_{i, p+j}), the operator
    the layer coefficients expand.  Raise/skip policy: a layer whose
    polynomial factor vanishes is skipped before its coefficient is formed; a
    vanishing coefficient denominator with surviving polynomial factors
    raises DegenerateDenominatorError (callers must exclude such K-types).
    """
    params, kt = _require_typical(f).params, f.kt
    if not (1 <= i <= params.p and 1 <= j <= params.q):
        raise ValueError("need 1 <= i <= p and 1 <= j <= q")
    gen = Generator(i, params.p + j, "M")
    op = pi_generator(gen, params.space).scale(-1)
    lhs = apply_operator(op, f)
    v = lhs.validity

    # the x harmonic moves along x_i, the y harmonic along y_j
    moved = {}
    for block, h, var in (("x", f.h1, i - 1), ("y", f.h2, params.p + j - 1)):
        moved[block, "d"], moved[block, "v"] = h.diff(var), h.var_mul(var)
    wb, sb = params.weight_block, params.series_block
    rhs = MultiPoly.zero(params.space)
    for layer in params.layers(kt):
        kinds = {wb: layer.weight, sb: layer.radial}
        factors = {b: moved[b, kind] for b, kind in kinds.items()}
        if factors["x"].is_zero() or factors["y"].is_zero():
            continue
        if layer.den == 0:
            raise DegenerateDenominatorError(
                f"coefficient denominator vanished at K-type (k={kt.k}, l={kt.l})"
            )
        if layer.num == 0:
            continue
        for b, kind in kinds.items():
            if kind == "v":
                factors[b] = dagger(factors[b], b)
        h = factors["x"].mul(factors["y"])
        term = _radial_layer(layer.kappa, layer.exponent, sb, h, v)
        rhs = rhs + term.scale(layer.num / layer.den)
    return lhs.agrees_with(TruncatedElement(rhs, v))


# -- sample plans ----------------------------------------------------------------------


def ktype_enumeration(params: ModuleParams, k_max: int, l_max: int) -> List[KType]:
    """All K-types of the family with k <= k_max, l <= l_max, ordered by (k, l)."""
    out = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            kt = KType(k, l, params.p, params.q)
            if params.allows(kt):
                out.append(kt)
    return out


def ktype_elements(
    params: ModuleParams, k_max: int, l_max: int, D: int
) -> Iterator[TypicalElement]:
    """One typical element per K-type of ktype_enumeration(params, k_max,
    l_max), in its order, built at degree D from the first harmonic basis
    element of each block."""
    space = params.space
    for kt in ktype_enumeration(params, k_max, l_max):
        h1 = harmonic_basis(space, "x", kt.k)[0]
        h2 = harmonic_basis(space, "y", kt.l)[0]
        yield typical_element(params, h1, h2, D)


def product_elements(params: ModuleParams, kt: KType, D: int) -> Iterator[TypicalElement]:
    """The typical elements of every harmonic product at K-type kt, built at
    degree D, in basis order with the x harmonic outermost."""
    for h1 in harmonic_basis(params.space, "x", kt.k):
        for h2 in harmonic_basis(params.space, "y", kt.l):
            yield typical_element(params, h1, h2, D)


def default_samples(params: ModuleParams, D: int) -> Iterator[TypicalElement]:
    """The default sampling plan of the obstruction solver, built at degree D.

    ktype_elements over k, l <= 2, then product_elements at the smallest of
    those K-types with k + l >= 1 (least multiplicity, then least (k, l)).
    """
    yield from ktype_elements(params, 2, 2, D)
    enriched = [kt for kt in ktype_enumeration(params, 2, 2) if kt.k + kt.l >= 1]
    if enriched:
        best = min(enriched, key=lambda kt: (kt.multiplicity, kt.k, kt.l))
        yield from product_elements(params, best, D)


# -- the obstruction solver -----------------------------------------------------------


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the sampled solvability question for (Y, lambda).

    Frozen, with tuple fields, because garfinkle_obstruction memoizes it and
    every caller at the same parameters shares the one instance.  A witness
    holds the generator coefficients as (generator, coefficient) pairs in
    generator order, then lambda.
    """

    exists: bool
    witness: Optional[Tuple[Tuple[Tuple[Generator, Fraction], ...], Fraction]]
    certificate: Optional[str]
    validity: int
    n_samples: int
    n_rows: int
    xi_scalars: Tuple[Fraction, ...] = ()

    def to_dict(self) -> Dict:
        witness = None
        if self.witness is not None:
            coeffs, lam = self.witness
            witness = {
                "generator_coefficients": {f"({g.i},{g.j})": str(c) for g, c in coeffs if c},
                "lambda": str(lam),
            }
        return {
            "exists": self.exists,
            "witness": witness,
            "certificate": self.certificate,
            "validity": self.validity,
            "n_samples": self.n_samples,
            "n_rows": self.n_rows,
            "xi_scalars": [str(s) for s in self.xi_scalars],
        }


def default_depth(m: int, kl_max: int = 6) -> int:
    """Working truncation degree of the module-level checks on K-types with
    k + l <= kl_max: 2m + 6 + max(6, kl_max), a headroom of 6 over the
    largest base degree k + l + 2m and never below 2m + 12."""
    return 2 * m + 6 + max(6, kl_max)


def default_solver_depth(m: int) -> int:
    """Working truncation degree of the obstruction solver, 2m + 8."""
    return 2 * m + 8


def garfinkle_obstruction(params: ModuleParams, D: int) -> ObstructionResult:
    """Decide solvability of pi(Y) f + lambda f = lambda_kappa(f) f over the
    default samples f, built at degree D.

    Builds the exact linear system in the M-flavor generator coefficients of
    Y (the witness is reported in these coordinates; whenever a witness
    exists it is zero, because the eigenvalues vanish at m = 0) and the
    scalar lambda (one equation per monomial per sampled element, compared at
    validity D - 2).  Rows enter an incremental reduced echelon form in
    deterministic order until the rank stabilizes; the candidate solution is
    then verified against every equation in full, violated rows are fed back,
    and the loop ends with either a fully verified witness or an exact
    infeasibility certificate (a row reducing to 0 = 1).  Infeasibility of
    the truncated sampled system implies infeasibility of the full system.

    For m = 0 the eigenvalues lambda_kappa vanish on the whole window, so the
    zero witness is exact regardless of truncation.  Fewer than two samples,
    or (for m >= 1) samples sharing one eigenvalue, are solvable for a
    reason unrelated to the module and raise DegenerateSampleError.

    D is required: the checks pass default_solver_depth(params.m) unless a
    depth is given.  The result is memoized on (params, D), so the theorem
    assembly reads the result of the obstruction check instead of solving
    again; cache_info and cache_clear reach that memo.  The memo sits one
    call down so that D passed by position or by keyword is one entry (an
    lru_cache keys the two apart).  A raised error is not memoized.
    """
    return _obstruction(params, D)


@lru_cache(maxsize=None)
def _obstruction(params: ModuleParams, D: int) -> ObstructionResult:
    """garfinkle_obstruction, memoized on its positional arguments."""
    space = params.space
    gens = generators(params.p, params.q, "M")
    lam_col = len(gens)
    rhs_col = lam_col + 1

    validity = D - 2
    prepared = []
    for f in default_samples(params, D):
        fpoly = f.expansion.truncate(validity)
        images = [pi_generator(g, space).apply(f.expansion, max_degree=validity) for g in gens]
        keys = set(fpoly._terms)
        for img in images:
            keys.update(img._terms)
        lam_k = params.scalar("xi", f.kt)
        # one multiplier per sample clears every denominator of its equations
        # (scaling a row changes no echelon status)
        den = lcm(fpoly.den * lam_k.denominator, *(img.den for img in images))
        prepared.append((f.kt, lam_k, fpoly, images, sorted(keys), den))

    xi_values = tuple(lam_k for _, lam_k, _, _, _, _ in prepared)
    if len(prepared) < 2 or (params.m >= 1 and len(set(xi_values)) < 2):
        raise DegenerateSampleError(
            f"{len(prepared)} default samples with Xi eigenvalues "
            f"{sorted(set(map(str, xi_values)))} cannot decide the system at {params}"
        )

    rref = SparseRREF(rhs_col=rhs_col)
    n_rows = 0

    def build_row(s_idx: int, key: int) -> Dict[int, int]:
        """The equation of one monomial of one sample, scaled to integers."""
        _, lam_k, fpoly, images, _, den = prepared[s_idx]
        row: Dict[int, int] = {}
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

    def feed(row) -> Optional[str]:
        nonlocal n_rows
        if not row:
            return None
        n_rows += 1
        status, _ = rref.add_row(row)
        return status

    def infeasible(s_idx: int, key: int) -> ObstructionResult:
        kt = prepared[s_idx][0]
        return ObstructionResult(
            exists=False,
            witness=None,
            certificate=(
                f"monomial {space.unpack(key)} of sample {s_idx} "
                f"(K-type k={kt.k}, l={kt.l}) reduces to 0 = 1"
            ),
            validity=validity,
            n_samples=len(prepared),
            n_rows=n_rows,
            xi_scalars=xi_values,
        )

    # phase 1: seed the echelon form, early-stopping per sample once no new
    # rank has appeared for a while (the residual phase catches the rest)
    for s_idx, (_, _, _, _, keys, _) in enumerate(prepared):
        stable = 0
        for key in keys:
            status = feed(build_row(s_idx, key))
            if status == "inconsistent":
                return infeasible(s_idx, key)
            if status == "pivot":
                stable = 0
            elif status == "dependent":
                stable += 1
                if stable >= 60:
                    break

    # phase 2: solve, verify against everything, feed back violations
    while True:
        sol = rref.particular_solution()
        lam = sol.get(lam_col, ZERO)
        coeffs = {g: sol.get(idx, ZERO) for idx, g in enumerate(gens)}
        violation = None
        for s_idx, (_, lam_k, fpoly, images, _, _) in enumerate(prepared):
            residual = fpoly.scale(lam - lam_k)
            for idx, img in enumerate(images):
                c = coeffs[gens[idx]]
                if c:
                    residual = residual + img.scale(c)
            if not residual.is_zero():
                violation = (s_idx, min(residual._terms))
                break
        if violation is None:
            return ObstructionResult(
                exists=True,
                witness=(tuple(sorted(coeffs.items())), lam),
                certificate=None,
                validity=validity,
                n_samples=len(prepared),
                n_rows=n_rows,
                xi_scalars=xi_values,
            )
        s_idx, key = violation
        status = feed(build_row(s_idx, key))
        if status == "inconsistent":
            return infeasible(s_idx, key)
        if status != "pivot":
            raise AssertionError("violated row must change the echelon form")


# the memo of the public entry point, for callers that inspect or reset it
garfinkle_obstruction.cache_info = _obstruction.cache_info
garfinkle_obstruction.cache_clear = _obstruction.cache_clear
