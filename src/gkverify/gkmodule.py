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

The whole series is the terms w_j h1 (r_x^2)^(j + mu_x) h2 (r_y^2)^(j +
mu_y), j >= 0, with w_0 = 1/2^mu and w_j / w_(j+1) = -2 (j + 1)(2 kappa +
2 j).  Its frame, kappa and each block's (degree, size, mu_block), is read
off the K-type label (params, kt) by one helper, _frame, and so
eigenvalue_check and verify_membership take that label and no element.  A
TypicalElement adds the harmonics h1, h2, which only p_action_check reads;
the sample plans ktype_elements and product_elements yield typical
elements one at a time.  One table, _label_rule, says how a factor acts on
a label h (r^2)^a of its block, h harmonic there: E, R and L (the factors
of the liealg.closed_form words of the Casimirs, Xi and the sl2 triple)
give a multiple of h (r^2)^a', and V and D (v and d_v, v = x_i or y_j)
multiples of dagger(v h) (r^2)^a' and d_v h (r^2)^a'.  That test is exact by the
Fischer decomposition: every polynomial in a block is uniquely a sum of
harmonics times powers of r^2, so the h (r^2)^a, for one nonzero harmonic h
of each degree and every a, are independent, and so are the products of an
independent x-family with an independent y-family.

So eigenvalue_check, the three steps of verify_membership and
p_action_check are identities between label sums, one per label, and each
holds for the whole series, with no truncation: _placed expands their (c,
word) terms by the table's rows, and _verdicts decides them.  A term
shifts a label by a fixed amount per block, so the labels of one diagonal
(kind_x, kind_y, a_x - a_y fixed) are indexed by one integer t, and the
term of index j = t - d reaches label t.
Divided by w_t, the sum at label t is a polynomial P(t): each term gives its
coefficient, times w_(t-d) / w_t (a product of d factors quadratic in t),
times its rows' multiples (each at most quadratic in t).  P has degree at
most the largest term bound, so it is zero for every t >= 0 when it is
zero at t = 0 .. bound; _holds evaluates it there in integers.  A term
whose index t - d is negative is no term of the series, and the factor
(i + 1) of w_(t-d) / w_t vanishes at i = -1 for exactly those.

The obstruction solver at the bottom, garfinkle_obstruction, asks whether
some pair (Y, lambda) of a Lie-algebra element and a scalar satisfies pi(Y) f
+ lambda f = lambda_kappa(f) f on the typical element f of every default
sample, lambda_kappa being the symmetric-square eigenvalue.  Its samples are
harmonic pairs (kt, h1, h2), and the question is exact on h1 h2 alone: only
the block generators enter, and no series is formed or truncated.  It
returns a verified witness or an exact infeasibility certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .liealg import (
    Generator,
    closed_form,
    generators,
    pi_generator,
    same_block,
)
from .linalg import SparseRREF
from .poly import (
    ONE,
    ZERO,
    MultiPoly,
    RadialSeries,
    VariableSpace,
    dagger,
    exact,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rsq,
)
from .weyl import WeylOperator

__all__ = [
    "KType",
    "ActionLayer",
    "ModuleParams",
    "TypicalElement",
    "PsiPoleError",
    "DegenerateDenominatorError",
    "DegenerateSampleError",
    "psi_series",
    "typical_element",
    "ktype_elements",
    "product_elements",
    "verify_membership",
    "eigenvalue_check",
    "p_action_check",
    "ktype_box",
    "ktype_enumeration",
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
    def gap2(self) -> int:
        """2 (kappa_plus - kappa_minus) = 2k + p - 2l - q, an int."""
        return 2 * self.k + self.p - 2 * self.l - self.q

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
        """kappa_plus - kappa_minus is one of -m, -m+2, ..., m: in ints,
        |gap2| <= 2m and 2m + gap2 = 0 mod 4 (so gap2 is even)."""
        d2 = kt.gap2
        return abs(d2) <= 2 * self.m and (2 * self.m + d2) % 4 == 0

    def mu(self, kt: KType) -> int:
        """Radial exponent at this K-type, (m + kappa_s - kappa_o)/2, which
        is (2m + sign * gap2)/4."""
        if not self.allows(kt):
            raise ValueError(f"(k={kt.k}, l={kt.l}) is not a K-type of this family")
        return (2 * self.m + self.sign * kt.gap2) // 4

    @lru_cache(maxsize=None)
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
        n, c = self.n, self.m * (self.m + 2)
        if which == "g":
            return Fraction(c) - Fraction(n * n, 4) + n
        if kt is not None:
            kp, km = kt.kappa_plus, kt.kappa_minus
            if which == "op":
                return (kp - 1) ** 2 - Fraction((self.p - 2) ** 2, 4)
            if which == "oq":
                return (km - 1) ** 2 - Fraction((self.q - 2) ** 2, 4)
            if which == "xi":
                return (kp - km) * (kp + km - 2) - Fraction(self.p - self.q, n) * c
        raise ValueError(f"no eigenvalue is known for {which!r} at K-type {kt}")


def _frame(params: ModuleParams, kt: KType) -> Tuple[Fraction, Dict[str, Tuple[int, int, int]]]:
    """(kappa, blocks) of the family's whole series at K-type kt: the series
    parameter params.weights(kt)[0], and per block (harmonic degree, block
    size, mu_block), mu_block = mu on the series block and 0 on the other.
    params.mu raises ValueError outside the window."""
    mu = params.mu(kt)
    mx = mu if params.series_block == "x" else 0
    kappa = _series_parameter(params.weights(kt)[0])
    return kappa, {"x": (kt.k, params.p, mx), "y": (kt.l, params.q, mu - mx)}


class TypicalElement:
    """h1 h2 rho^mu Psi_kappa of the family `params` at K-type `kt`, the
    whole series, with kappa read from _frame(params, kt), which
    construction calls so that it refuses a K-type outside the window.  The
    label identities take (params, kt) instead; p_action_check takes one to
    read its harmonics.  Only typical_element builds one."""

    def __init__(self, params: ModuleParams, kt: KType, h1: MultiPoly, h2: MultiPoly) -> None:
        _frame(params, kt)
        self.params, self.kt, self.h1, self.h2 = params, kt, h1, h2
        self._parts: Dict = {}  # p_action_check's memo

    @property
    def space(self) -> VariableSpace:
        return self.h1.space

    @property
    def expansion(self) -> MultiPoly:
        """The leading term w_0 h1 h2 (r_s^2)^mu, formed on each read.  No
        check reads it: gkbench's Tracer._note reads it on every traced
        typical_element, and ROADMAP item 9 deletes it."""
        mu, out = self.params.mu(self.kt), self.h1.mul(self.h2)
        for _ in range(mu):
            out = out.mul(rsq(self.space, self.params.series_block))
        return out.scale(Fraction(1, 1 << mu))


def _series_parameter(alpha) -> Fraction:
    """alpha as a Fraction; PsiPoleError at the poles of Psi_alpha."""
    alpha = Fraction(exact(alpha))
    if alpha.denominator == 1 and alpha <= 0:
        raise PsiPoleError(f"series parameter {alpha} is a non-positive integer")
    return alpha


def psi_series(alpha: Fraction, cutoff: int) -> RadialSeries:
    """The exact series sum_j (-1)^j / (j! (alpha)_j) (rho_x rho_y)^j.

    Coefficients satisfy c_0 = 1 and c_{j+1} = -c_j / ((j+1)(alpha+j)); the
    parameter must be an int or a Fraction avoiding the poles at non-positive
    integers.
    """
    alpha = _series_parameter(alpha)
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    c = Fraction(1)
    for j in range(cutoff // 4 + 1):
        coeffs[j, j] = c
        c = -c / ((j + 1) * (alpha + j))
    return RadialSeries(coeffs, cutoff)


def _require_block_harmonic(h: MultiPoly, block: str) -> int:
    other = "y" if block == "x" else "x"
    if h.block_homogeneous_degree(other) != 0:
        raise ValueError(f"factor must involve only the {block} block")
    deg = h.block_homogeneous_degree(block)
    if not laplacian(h, block).is_zero():
        raise ValueError(f"factor of degree {deg} is not {block}-harmonic")
    return deg


def typical_element(params: ModuleParams, h1: MultiPoly, h2: MultiPoly) -> TypicalElement:
    """h1 h2 rho^mu Psi_kappa, the whole series.

    h1 must be a pure-x harmonic, h2 a pure-y harmonic; their degrees fix the
    K-type, which must lie in the family's window (both radial exponents
    non-negative integers).
    """
    k = _require_block_harmonic(h1, "x")
    l = _require_block_harmonic(h2, "y")
    return TypicalElement(params, KType(k, l, params.p, params.q), h1, h2)


# -- whole-series identities on K-type labels ---------------------------------------


def _label_rule(kind: str, a: int, k: int, n: int) -> Tuple[Tuple[int, int, str, int], ...]:
    """The one table of how a factor moves a label: `kind` sends h (r^2)^a,
    h harmonic of degree k in a block of n variables, to the sum over its
    rows (s, den, moved, a') of s/den times the moved harmonic times
    (r^2)^a'.  moved is "h" for h itself, "v" for V h = dagger(v h) and "d"
    for d_v h, v a variable of the block; s is an integer polynomial of
    degree at most 2 in a, and den and a' - a do not depend on a.
    - E, the Euler operator, multiplies by the degree k + 2a;
    - R, r^2, raises a;
    - L, the Laplacian, gives 2a (2a + 2k + n - 2) h (r^2)^(a-1), from [L, R]
      = 4E + 2n and L h = 0 (casimir.sl2_relation checks the commutators);
    - V, v times: with c = 1/(2k + n - 2) the harmonic part of v h is V h =
      v h - c r^2 d_v h (p_action_check checks that lemma, _fischer);
    - D, d_v: with d_v (r^2)^a = 2a v (r^2)^(a-1), it gives (1 + 2a c) d_v h
      (r^2)^a + 2a V h (r^2)^(a-1).
    At k = 0, d_v h = 0 and c is not read: its row is 0 over 1."""
    if kind == "E":
        return ((k + 2 * a, 1, "h", a),)
    if kind == "R":
        return ((1, 1, "h", a + 1),)
    if kind == "L":
        return ((2 * a * (2 * a + 2 * k + n - 2), 1, "h", a - 1),)
    c, den = (1, 2 * k + n - 2) if k else (0, 1)  # c = 1/(2k + n - 2) as c/den
    if kind == "V":
        return ((1, 1, "v", a), (c, den, "d", a + 1))
    if kind == "D":
        return ((den + 2 * a * c, den, "d", a), (2 * a, 1, "v", a - 1))
    raise ValueError(f"unknown factor kind {kind!r}")


def _placed(terms, params: ModuleParams, kt: KType) -> List[Tuple]:
    """The (c, word) terms applied to the family's whole series at K-type kt
    as placed terms (key, s_x, 2 lambda, const, coeffs) for _diagonals, one
    per choice of a _label_rule row for each factor, rightmost first, on an
    unmoved harmonic only.  Term j goes from ("h", j + mu_block) per block
    (_frame) to (moved_x, j + s_x, moved_y, j + s_y), keyed (moved_x,
    moved_y, s_x - s_y), times const * P(j): c over the rows' dens, and P
    (coeffs, lowest first; none if P = 0) the product of the rows' s, each
    fitted in j to its values at j = 0, 1, 2."""
    kappa, blocks = _frame(params, kt)
    two_kappa = int(2 * kappa)
    out = []
    for c, word in terms:
        branches = [(1, [1], {b: ("h", start) for b, (_, _, start) in blocks.items()})]
        for kind, block in reversed(word):
            k, n, _ = blocks[block]
            grown = []
            for dens, coeffs, labels in branches:
                moved, a = labels[block]
                if moved != "h":
                    raise ValueError(f"{kind}{block} acts on a moved harmonic in {word}")
                rows = [_label_rule(kind, a + j, k, n) for j in range(3)]
                for (s0, den, moved, a2), (s1, *_), (s2, *_) in zip(*rows):
                    lead = (s0 - 2 * s1 + s2) // 2
                    coeffs2 = _times(coeffs, (s0, s1 - s0 - lead, lead))
                    grown.append((dens * den, coeffs2, {**labels, block: (moved, a2)}))
            branches = grown
        for dens, coeffs, labels in branches:
            (mx, sx), (my, sy) = labels["x"], labels["y"]
            if coeffs:
                out.append(((mx, my, sx - sy), sx, two_kappa, Fraction(c, dens), tuple(coeffs)))
    return out


def _times(u: List[int], v) -> List[int]:
    """u * v, coefficients lowest first, without zero top coefficients."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


class _Term(NamedTuple):
    """One term of a label diagonal: at label t it contributes const *
    w_(t-d)(base + delta) / w_t(base) * P(t - d), P the integer polynomial
    with coefficients `coeffs`, lowest first: a polynomial in t of degree
    at most deg P + 2 d - delta (see _w_ratio)."""

    const: int
    d: int
    delta: int
    coeffs: Tuple[int, ...]

    @property
    def bound(self) -> int:
        return len(self.coeffs) - 1 + 2 * self.d - self.delta

    def rule(self, j: int) -> int:
        """P(j), by Horner's rule."""
        out = 0
        for c in reversed(self.coeffs):
            out = out * j + c
        return out


def _w_ratio(two_base: int, delta: int, j: int, t: int) -> int:
    """w_j(base + delta) / w_t(base) for t >= j + delta >= j, where w_j(alpha)
    = c_j(alpha) / 4^j with c_j the psi_series coefficients at alpha: the
    product over i = j .. t - 1 of -2 (i + 1), times 2 base + 2 i for i >= j
    + delta, times (2 base)(2 base + 2)...(2 base + 2 delta - 2).  At delta =
    0 each factor is -2 (i + 1)(2 base + 2 i) = w_i / w_(i+1).  At j < 0 <= t
    the factor i = -1 is zero, so the indices before the series starts give
    0 with no special case."""
    out = 1
    for i in range(delta):
        out *= two_base + 2 * i
    for i in range(j, t):
        out *= -2 * (i + 1) * (two_base + 2 * i if i >= j + delta else 1)
    return out


def _diagonals(placed) -> Dict:
    """The placed terms (key, s_x, 2 lambda, const, coeffs) as {key: (2 base,
    [_Term])}, grouped by their label diagonal `key`; term j of a placed
    term reaches the label a_x = j + s_x.  Each series is written in the w_j
    of psi_series at its own parameter lambda: divided by w_t(base), base
    the least parameter on the diagonal, term j of the series at base +
    delta contributes const * _w_ratio(2 base, delta, j, t), polynomial in t
    once t >= j + delta.  So a term fixes d = t - j = shift + s_x, shift the
    least making every d >= delta.  The constants of a diagonal are cleared
    to integers over their common denominator."""
    groups: Dict = {}
    for key, *entry in placed:
        groups.setdefault(key, []).append(entry)
    out = {}
    for key, entries in groups.items():
        two_base = min(two for _, two, _, _ in entries)
        shift = max((two - two_base) // 2 - sx for sx, two, _, _ in entries)
        den = lcm(*(const.denominator for _, _, const, _ in entries))
        out[key] = (two_base, [
            _Term(const.numerator * (den // const.denominator), shift + sx,
                  (two - two_base) // 2, coeffs)
            for sx, two, const, coeffs in entries
        ])
    return out


def _diagonal_value(two_base: int, terms, t: int):
    """The sum at label t of one diagonal, divided by w_t(base)."""
    return sum(
        term.const * _w_ratio(two_base, term.delta, t - term.d, t) * term.rule(t - term.d)
        for term in terms
    )


def _holds(two_base: int, terms) -> bool:
    """Whether the diagonal's label sums vanish at every t >= 0: its
    polynomial is zero at t = 0 .. the largest term bound."""
    top = max(term.bound for term in terms)
    return not any(_diagonal_value(two_base, terms, t) for t in range(top + 1))


def _verdicts(placed) -> Dict[Tuple[str, str, int], bool]:
    """{(kind_x, kind_y, a_x - a_y): whether that label diagonal of the
    placed terms vanishes for the whole series}, by _holds."""
    return {key: _holds(*diag) for key, diag in _diagonals(placed).items()}


def _vanishes(terms, params: ModuleParams, kt: KType) -> bool:
    """Whether sum c * word(f) is zero, for the whole series f of the family
    at K-type kt."""
    return all(_verdicts(_placed(terms, params, kt)).values())


def _minus_identity(terms, scalar: Fraction):
    """The (c, word) terms with -scalar joined to their empty word."""
    empty = sum((c for c, word in terms if not word), -scalar)
    return tuple((c, word) for c, word in terms if word) + ((empty, ()),)


def _power(terms, n: int):
    """The n-th power of a closed form as one (c, word) list.  The blocks
    commute, so each word is written x factors first (a stable sort) and
    equal words merge: (Rx + Ly)^n gives the binomial words Rx^i Ly^(n-i)."""
    out: Dict[Tuple[str, ...], Fraction] = {(): ONE}
    for _ in range(n):
        grown: Dict[Tuple[str, ...], Fraction] = {}
        for word, c in out.items():
            for c2, w2 in terms:
                w = tuple(sorted(word + w2, key=lambda factor: factor[1]))
                grown[w] = grown.get(w, ZERO) + c * c2
        out = grown
    return tuple((c, word) for word, c in out.items() if c)


# -- module checks ----------------------------------------------------------------


@dataclass
class MembershipReport:
    weight_ok: bool
    annihilated_ok: bool
    power_ok: bool

    @property
    def ok(self) -> bool:
        return self.weight_ok and self.annihilated_ok and self.power_ok


def verify_membership(params: ModuleParams, kt: KType) -> MembershipReport:
    """Check the three defining conditions of the family on its whole series
    at K-type kt, each one zero test on the labels as in eigenvalue_check:
    H - sign m, the killing generator and the (m+1)-th power of the lowering
    one (one list of binomial words) must each annihilate it."""
    p, q, m = params.p, params.q, params.m
    killer, lower = params.sl2_roles
    return MembershipReport(
        _vanishes(_minus_identity(closed_form("H", p, q), params.sign * m), params, kt),
        _vanishes(closed_form(killer, p, q), params, kt),
        _vanishes(_power(closed_form(lower, p, q), m + 1), params, kt),
    )


@dataclass
class EigenvalueReport:
    name: str
    scalar: Fraction
    ok: bool


def eigenvalue_check(which: str, params: ModuleParams, kt: KType) -> EigenvalueReport:
    """Does the closed form `which` act on the family's whole series at
    K-type kt by its scalar there?  One zero test on the labels (_vanishes):
    the closed form applied to the series minus scalar times the series, the
    scalar joined to the empty word, must vanish."""
    scalar = params.scalar(which, kt)
    terms = _minus_identity(closed_form(which, params.p, params.q), scalar)
    return EigenvalueReport(which, scalar, _vanishes(terms, params, kt))


# -- mixed-generator action ---------------------------------------------------------


# x_i y_j + d_{y_j} d_{x_i} as (c, word) terms over the V and D rows of _label_rule
_ACTION = ((ONE, (("V", "x"), ("V", "y"))), (ONE, (("D", "y"), ("D", "x"))))


def p_action_check(f: TypicalElement, i: int, j: int) -> bool:
    """Verify the four-layer expansion of the mixed generator action on the
    whole series f.

    Two exact steps (1-based i <= p, j <= q): -pi(M_{i, p+j}) =
    sqrt(-1) pi(X_{i, p+j}) must equal x_i y_j + d_{x_i} d_{y_j} term for
    term, and x_i y_j f + d_{y_j}(d_{x_i} f) minus the layers of
    f.params.layers(f.kt) must vanish.  Every term of that sum is a
    multiple of a label (kind_x, a_x, kind_y, a_y), F_x h1 (r_x^2)^a_x F_y
    h2 (r_y^2)^a_y with F_x h1 = d_{x_i} h1 ("d") or dagger(x_i h1) ("v")
    and F_y likewise along y_j.  The multiples do not depend on (i, j):
    the words V_x V_y and D_x D_y of _ACTION, placed by the V and D rows of
    _label_rule, and the layers (_layer_terms) go through _verdicts once
    per f.  Each (i, j) checks the lemma of the V row on its two variables
    (_fischer, once per variable), drops the diagonals of "d" labels whose
    harmonic d_{x_i} h1 or d_{y_j} h2 is zero, and needs every other
    diagonal to hold.  A zero layer denominator raises
    DegenerateDenominatorError where neither moved harmonic vanishes."""
    if not isinstance(f, TypicalElement):
        raise TypeError(f"need a TypicalElement, got {type(f).__name__}")
    params, kt = f.params, f.kt
    if not (1 <= i <= params.p and 1 <= j <= params.q):
        raise ValueError("need 1 <= i <= p and 1 <= j <= q")
    space = params.space
    xi, yj = i - 1, params.p + j - 1
    xy = space.unit_key(xi) + space.unit_key(yj)
    op = pi_generator(Generator(i, params.p + j, "M"), space).scale(-1)
    if op != WeylOperator(space, {(xy, 0): 1, (0, xy): 1}):
        return False
    holds = f._parts.get("labels")
    if holds is None:
        placed = _placed(_ACTION, params, kt) + _layer_terms(params, kt)
        holds = f._parts["labels"] = _verdicts(placed)
    no_d = {}  # block -> whether its "d" harmonic, d_{x_i} h1 or d_{y_j} h2, is zero
    for block, var in (("x", xi), ("y", yj)):
        if var not in f._parts:
            f._parts[var] = _fischer(f, var)
        lemma, no_d[block] = f._parts[var]
        if not lemma:
            return False
    for layer in params.layers(kt):
        kinds = {params.weight_block: layer.weight, params.series_block: layer.radial}
        if layer.den == 0 and not any(kinds[b] == "d" and no_d[b] for b in "xy"):
            raise DegenerateDenominatorError(
                f"coefficient denominator vanished at K-type (k={kt.k}, l={kt.l})"
            )
    return all(
        ok for (kx, ky, _), ok in holds.items()
        if not (kx == "d" and no_d["x"] or ky == "d" and no_d["y"])
    )


def _layer_terms(params: ModuleParams, kt: KType) -> List[Tuple]:
    """The layers of p_action_check as placed terms (_diagonals): a layer
    num/den F_x h1 F_y h2 rho_s^e Psi_lambda gives -num/den c_j(lambda) /
    2^(2 j + e), that is -num/den 2^(mu - e) w_j(lambda) / 2^mu, at (kind_x,
    j + e_x, kind_y, j + e_y), e on the series block; the typical element's
    own terms are in the w_j of psi_series at kappa = _frame(params, kt)[0]
    over 2^mu.  A layer with a zero num or den, or whose moved harmonic has
    negative degree, is left out: it is zero at every (i, j) that gets past
    the guards."""
    kappa = _frame(params, kt)[0]
    mu = params.mu(kt)
    out = []
    for layer in params.layers(kt):
        kinds = {params.weight_block: layer.weight, params.series_block: layer.radial}
        kx, ky = kinds["x"], kinds["y"]  # each moved harmonic's degree is 1 off its own
        dx, dy = kt.k + (1 if kx == "v" else -1), kt.l + (1 if ky == "v" else -1)
        if not (layer.den and layer.num) or min(dx, dy) < 0:
            continue
        lam = _series_parameter(layer.kappa)
        if (lam - kappa).denominator != 1:
            raise ValueError(f"layer parameter {lam} is not kappa = {kappa} plus an integer")
        e = {params.series_block: layer.exponent, params.weight_block: 0}
        const = -layer.num / layer.den * Fraction(2) ** (mu - layer.exponent)
        out.append(((kx, ky, e["x"] - e["y"]), e["x"], int(2 * lam), const, (1,)))
    return out


def _fischer(f: TypicalElement, var: int) -> Tuple[bool, bool]:
    """(whether the lemma of _label_rule's V row holds for var on f's
    harmonic h of var's block, whether d_var h is zero): V = dagger(var h)
    must be block-harmonic and nonzero, and var h - V = c r^2 d_var h with
    c the multiple of the row's "d" label, 1/(2k + n - 2)."""
    p, q, kt = f.params.p, f.params.q, f.kt
    block, h, k, n = ("x", f.h1, kt.k, p) if var < p else ("y", f.h2, kt.l, q)
    moved, d = h.var_mul(var), h.diff(var)
    v = dagger(moved, block)
    c = sum(Fraction(s, den) for s, den, kind, _ in _label_rule("V", 0, k, n) if kind == "d")
    holds = bool(v) and laplacian(v, block).is_zero()
    return holds and moved - v == rsq(f.space, block).mul(d).scale(c), d.is_zero()


# -- sample plans ----------------------------------------------------------------------


def _window(params: ModuleParams) -> Iterator[KType]:
    """The K-types of the family with k + l <= p + q, by k + l, then k.  The
    plans need none further: each diagonal k - l = d of the window has |d|
    <= |q - p|/2 + m <= p + q - 5 and K-types at k + l = |d| and |d| + 2."""
    for total in range(params.n + 1):
        for k in range(total + 1):
            kt = KType(k, total - k, params.p, params.q)
            if params.allows(kt):
                yield kt


@lru_cache(maxsize=None)
def ktype_box(params: ModuleParams, k_max: int, l_max: int) -> Tuple[range, range]:
    """The (k, l) ranges every sample plan reads: k <= k_max, l <= l_max when
    that box holds a K-type of the family, else the box of the same size
    whose corner is the family's K-type of least k + l, which then comes
    first.  The window is never empty: p + q is even, so its diagonal k - l
    = (q - p)/2 - m holds a K-type."""
    ks, ls = range(k_max + 1), range(l_max + 1)
    if any(params.allows(KType(k, l, params.p, params.q)) for k in ks for l in ls):
        return ks, ls
    corner = next(_window(params))
    return range(corner.k, corner.k + k_max + 1), range(corner.l, corner.l + l_max + 1)


def ktype_enumeration(params: ModuleParams, k_max: int, l_max: int) -> List[KType]:
    """All K-types of the family in ktype_box(params, k_max, l_max), ordered
    by (k, l)."""
    ks, ls = ktype_box(params, k_max, l_max)
    kts = (KType(k, l, params.p, params.q) for k in ks for l in ls)
    return [kt for kt in kts if params.allows(kt)]


def _first_harmonics(params: ModuleParams, kt: KType) -> Tuple:
    """(kt, h1, h2) with the first harmonic basis element of each block."""
    space = params.space
    return kt, harmonic_basis(space, "x", kt.k)[0], harmonic_basis(space, "y", kt.l)[0]


def _product_harmonics(params: ModuleParams, kt: KType) -> Iterator[Tuple]:
    """(kt, h1, h2) for every harmonic product at K-type kt, in basis order
    with the x harmonic outermost."""
    for h1 in harmonic_basis(params.space, "x", kt.k):
        for h2 in harmonic_basis(params.space, "y", kt.l):
            yield kt, h1, h2


def ktype_elements(params: ModuleParams, k_max: int, l_max: int) -> Iterator[TypicalElement]:
    """The typical element with the first harmonics (_first_harmonics) of
    each K-type of ktype_enumeration(params, k_max, l_max), in its order."""
    for kt in ktype_enumeration(params, k_max, l_max):
        _, h1, h2 = _first_harmonics(params, kt)
        yield typical_element(params, h1, h2)


def product_elements(params: ModuleParams, kt: KType) -> Iterator[TypicalElement]:
    """The typical elements of every harmonic product at K-type kt, in basis
    order with the x harmonic outermost."""
    for _, h1, h2 in _product_harmonics(params, kt):
        yield typical_element(params, h1, h2)


def default_samples(params: ModuleParams) -> Iterator[Tuple[KType, MultiPoly, MultiPoly]]:
    """The default sampling plan, as (kt, h1, h2): the first harmonics of
    each K-type of ktype_enumeration(params, 2, 2), then every harmonic
    product at the smallest of those K-types with k + l >= 1 (least
    multiplicity, then least (k, l)).  At m >= 1, when those K-types hold
    one Xi scalar, the first harmonics of the first K-type of the window
    (_window) with another one follow.  It exists: Xi = (kappa_plus -
    kappa_minus)(kappa_plus + kappa_minus - 2) - const moves along every
    diagonal but the one with kappa_plus = kappa_minus, and at m >= 1 the
    window holds another one.  The obstruction solver reads the harmonics;
    the Casimir step of symsq.theorem_ingredients reads the K-types."""
    kts = ktype_enumeration(params, 2, 2)
    yield from (_first_harmonics(params, kt) for kt in kts)
    enriched = [kt for kt in kts if kt.k + kt.l >= 1]
    if enriched:
        best = min(enriched, key=lambda kt: (kt.multiplicity, kt.k, kt.l))
        yield from _product_harmonics(params, best)
    xis = {params.scalar("xi", kt) for kt in kts}
    if params.m >= 1 and len(xis) == 1:
        for kt in _window(params):
            if params.scalar("xi", kt) not in xis:
                yield _first_harmonics(params, kt)
                break


# -- the obstruction solver -----------------------------------------------------------


@dataclass(frozen=True)
class ObstructionResult:
    """Outcome of the sampled solvability question for (Y, lambda).

    Frozen, with tuple fields, because garfinkle_obstruction memoizes it and
    every caller at the same parameters shares the one instance.  A witness
    holds the coefficients of the block generators as (generator,
    coefficient) pairs in generator order, then lambda; the mixed
    coefficients of Y are zero and not listed.
    """

    exists: bool
    witness: Optional[Tuple[Tuple[Tuple[Generator, Fraction], ...], Fraction]]
    certificate: Optional[str]
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
            "n_samples": self.n_samples,
            "n_rows": self.n_rows,
            "xi_scalars": [str(s) for s in self.xi_scalars],
        }


@lru_cache(maxsize=None)
def garfinkle_obstruction(params: ModuleParams, /) -> ObstructionResult:
    """Decide whether some Lie-algebra element Y and scalar lambda satisfy
    pi(Y) f + lambda f = Xi_kt f for the typical element f of every default
    sample (kt, h1, h2), Xi_kt being the symmetric-square eigenvalue at kt.

    The question is exact on h1 h2 alone, with no series and no truncation.
    Split Y = Y_k + Y_p into its block part (liealg.same_block) and its
    mixed part.
    - pi(Y_k) is a sum of rotations v_i d_j - v_j d_i inside one block, which
      commute with r_x^2 and r_y^2, so pi(Y_k) f is f with h1 h2 replaced by
      pi(Y_k)(h1 h2), of the same bidegree (k, l): it keeps f in its K-type.
    - pi(M_{i,p+j}) = -(x_i y_j + d_{x_i} d_{y_j}) changes the x-degree by
      one, so every term of pi(Y_p) f has x-degree of the other parity than
      the terms k + 2(j + mu_x) of f: it has no (k, l) component.
    So the equation splits by x-degree parity into pi(Y_p) f = 0, which
    Y_p = 0 satisfies, and sum_j w_j (r_x^2)^(j + mu_x) (r_y^2)^(j + mu_y)
    E = 0 with E = pi(Y_k)(h1 h2) + (lambda - Xi_kt) h1 h2.  Its part of
    lowest degree is w_0 r^(2 mu) E with w_0 != 0, and multiplying by a
    power of r^2 is injective, so it holds exactly when E = 0.  The sampled
    system is feasible exactly when this harmonic system is, with Y_p = 0.

    The unknowns are the coefficients of the block generators and lambda.
    Each sample adds one row per monomial of degree k + l of E, from one
    pi_generator(g).apply(h1 h2) per block generator g, formed when the
    sample is first read.  The rows enter one SparseRREF; a row that
    reduces to 0 = 1 ends the solve with that certificate, so the samples
    after it are never read.  Otherwise the particular solution is the
    witness, and E is checked to vanish on every sample.  When every Xi_kt
    is 0, as for m = 0, the system is homogeneous: the zero witness is
    returned with no row formed and no sample imaged.

    Fewer than two samples, or (for m >= 1) samples sharing one eigenvalue,
    are solvable for a reason unrelated to the module and raise
    DegenerateSampleError before any image is formed.  The result is
    memoized on params, so the theorem assembly reads the result of the
    obstruction check instead of solving again.  A raised error is not
    memoized.
    """
    space = params.space
    gens = [g for g in generators(params.p, params.q, "M") if same_block(g, params.p)]
    lam_col = len(gens)
    rhs_col = lam_col + 1
    samples = [(kt, h1, h2, params.scalar("xi", kt)) for kt, h1, h2 in default_samples(params)]
    xi_values = tuple(xi for *_, xi in samples)
    if len(samples) < 2 or (params.m >= 1 and len(set(xi_values)) < 2):
        raise DegenerateSampleError(
            f"{len(samples)} default samples with Xi eigenvalues "
            f"{sorted(set(map(str, xi_values)))} cannot decide the system at {params}"
        )
    if not any(xi_values):
        witness = (tuple((g, ZERO) for g in gens), ZERO)
        return ObstructionResult(True, witness, None, len(samples), 0, xi_values)

    rref = SparseRREF(rhs_col=rhs_col)
    n_rows = 0
    systems = []
    for s_idx, (kt, h1, h2, xi) in enumerate(samples):
        h = h1.mul(h2)
        images = [pi_generator(g, space).apply(h) for g in gens]
        systems.append((h, images, xi))
        # one multiplier clears every denominator of the sample's rows
        # (scaling a row changes no echelon status)
        den = lcm(h.den * xi.denominator, *(img.den for img in images))
        for key in sorted(set(h._terms).union(*(img._terms for img in images))):
            row: Dict[int, int] = {}
            for idx, img in enumerate(images):
                c = img._terms.get(key)
                if c:
                    row[idx] = c * (den // img.den)
            hc = h._terms.get(key)
            if hc:
                hc *= den // h.den
                row[lam_col] = hc
                if xi:
                    row[rhs_col] = -(hc // xi.denominator) * xi.numerator
            n_rows += 1
            if rref.add_row(row)[0] == "inconsistent":
                certificate = (
                    f"monomial {space.unpack(key)} of sample {s_idx} "
                    f"(K-type k={kt.k}, l={kt.l}) reduces to 0 = 1"
                )
                return ObstructionResult(False, None, certificate, len(samples), n_rows, xi_values)

    sol = rref.particular_solution()
    lam = sol.get(lam_col, ZERO)
    coeffs = [sol.get(idx, ZERO) for idx in range(len(gens))]
    for h, images, xi in systems:
        residual = h.scale(lam - xi)
        for c, img in zip(coeffs, images):
            if c:
                residual = residual + img.scale(c)
        if not residual.is_zero():
            raise AssertionError("the particular solution must satisfy every fed row")
    witness = (tuple(zip(gens, coeffs)), lam)
    return ObstructionResult(True, witness, None, len(samples), n_rows, xi_values)
