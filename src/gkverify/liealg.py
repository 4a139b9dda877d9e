"""The indefinite orthogonal Lie algebra, its enveloping algebra, and the
oscillator representation by differential operators.

Two generator flavors share one index scheme (1-based, canonical i < j):

* flavor "X": the signature-(p,q) basis, X_{i,j} = eps_j E_{i,j} - eps_i E_{j,i}
  with eps_k = +1 for k <= p and -1 otherwise; X_{j,i} = -X_{i,j}.
* flavor "M": the compact basis M_{i,j} = E_{i,j} - E_{j,i} of the same
  complexified algebra after conjugating the quadratic form away.

Over C the two flavors correspond by X_{i,j} = phi_{i,j} M_{i,j}, with
phi = 1 on pairs inside the first block, -1 inside the second and sqrt(-1)
across blocks.  Every coefficient in this package is rational, so the
correspondence is only used on words with an even number of mixed
(cross-block) letters, where the product of the factors is the real sign
returned by transport_sign; a word with an odd number raises.  Both flavors
have rational structure constants.

Lie elements, enveloping-algebra elements and symmetric-square tensors
(symsq) are one type, Combination: a poly.SparseRational whose context is
(signature, flavor), so int numerators over one shared denominator, kept in
lowest terms.  The keys are generators, generator words, and ordered
generator pairs respectively; a pair is a word of length two, so transport,
which relabels every word in the other flavor times its sign, and pi_env
apply to tensors as they are.  Every structure constant is +1 or -1 in both
flavors, so brackets, products, straightening and transport work on int
numerators and reduce once per result.  pbw_normal_form straightens words
to non-decreasing generator order, which is a confluent rewriting, so
normal forms are canonical and equality of enveloping elements is
decidable.

The representation pi is defined on the M flavor, where it is real: it sends
M_{i,j} to the rotation field v_i d_j - v_j d_i within a block and to
-(x_i y_j + d_{x_i} d_{y_j}) across blocks, and extends to words by operator
composition.  X-flavor elements (the Casimir words, say) reach pi through
transport.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Sequence,
    Tuple,
    TypeVar,
)

from .poly import ONE, ZERO, ScalarLike, SparseRational, VariableSpace, _numerators, exact
from .weyl import WeylOperator, _commute, _leibniz, euler_op, laplacian_op, rsq_op

__all__ = [
    "Generator",
    "LieElement",
    "EnvelopingElement",
    "generators",
    "dual_sign",
    "bracket",
    "form_B",
    "transport_sign",
    "transport",
    "pbw_normal_form",
    "degree2_symbol",
    "gamma2",
    "casimir",
    "pi_generator",
    "pi_env",
    "pi_casimir",
    "sl2_triple",
    "sl2_casimir_op",
    "closed_form",
    "closed_operator",
]

Signature = Tuple[int, int]


class Generator(NamedTuple):
    """Canonical basis element with 1-based indices i < j."""

    i: int
    j: int
    flavor: str  # "X" or "M"


def epsilon(i: int, p: int) -> int:
    return 1 if i <= p else -1


def canonical(i: int, j: int, flavor: str) -> Tuple[Generator, int]:
    """Map arbitrary (i, j), i != j, to the stored generator and a sign."""
    if i == j:
        raise ValueError("generators need i != j")
    if i < j:
        return Generator(i, j, flavor), 1
    return Generator(j, i, flavor), -1


def generators(p: int, q: int, flavor: str = "X") -> List[Generator]:
    """All canonical generators, ordered lexicographically by (i, j)."""
    n = p + q
    return [Generator(i, j, flavor) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def same_block(g: Generator, p: int) -> bool:
    return (g.i <= p and g.j <= p) or (g.i > p and g.j > p)


def dual_sign(g: Generator, p: int) -> int:
    """X_{i,j}-dual = dual_sign * X_{i,j} under the half-trace form."""
    return -1 if same_block(g, p) else 1


# -- matrices ----------------------------------------------------------------


def _entries(g: Generator, p: int) -> Tuple[int, int]:
    """The two nonzero entries of g's matrix, (m_ij, m_ji) at (i, j) and
    (j, i); both are +-1 in either flavor."""
    if g.flavor == "M":
        return 1, -1
    if g.flavor == "X":
        return epsilon(g.j, p), -epsilon(g.i, p)
    raise ValueError(f"unknown flavor {g.flavor!r}")


# -- coefficient combinations ---------------------------------------------------


C = TypeVar("C", bound="Combination")


class Combination(SparseRational):
    """A ``poly.SparseRational`` over one signature and one generator flavor:
    int numerators over one denominator, with context (sig, flavor).

    Subclasses fix what a key is: a generator (LieElement), a word of
    generators (EnvelopingElement) or an ordered generator pair
    (SymSquareTensor); ``_letters`` lists the generators of a key.  The
    public constructor takes ``int`` or ``Fraction`` coefficients and
    refuses an unknown flavor or a key letter that is not a canonical
    generator of this signature and flavor; kernels build their results
    through ``reduced`` without those checks.  Arithmetic and equality are
    type-strict: a symmetric tensor and its multiplication image share their
    terms but are never equal.
    """

    __slots__ = ()

    def __init__(self, sig: Signature, flavor: str, coeffs: Mapping[Hashable, ScalarLike]) -> None:
        if flavor not in ("X", "M"):
            raise ValueError(f"flavor must be 'X' or 'M', not {flavor!r}")
        n = sig[0] + sig[1]
        for key, c in coeffs.items():
            exact(c)
            for g in self._letters(key):
                if not (isinstance(g, Generator) and g.flavor == flavor and 1 <= g.i < g.j <= n):
                    raise ValueError(
                        f"{g!r} is not a canonical {flavor}-flavor generator at signature {sig}"
                    )
        super().__init__((sig, flavor), *_numerators(coeffs))

    @staticmethod
    def _letters(key: Hashable) -> Sequence["Generator"]:
        return key

    @property
    def sig(self) -> Signature:
        return self.ctx[0]

    @property
    def flavor(self) -> str:
        return self.ctx[1]

    @property
    def coeffs(self) -> Dict[Hashable, Fraction]:
        """The coefficients as reduced Fractions, in key order (a fresh dict)."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self._terms.items()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sig}, {self.flavor}, {len(self._terms)} terms)"


class LieElement(Combination):
    """A finite coefficient combination of canonical generators."""

    __slots__ = ()

    @staticmethod
    def _letters(key: Generator) -> Sequence[Generator]:
        return (key,)

    @staticmethod
    def basis(g: Generator, sig: Signature) -> "LieElement":
        return LieElement(sig, g.flavor, {g: 1})


_NO_TERMS: Mapping[Generator, int] = MappingProxyType({})


class _StructureConstants(dict):
    """Bracket rows keyed by ordered generator pairs.

    Only nonzero rows are stored (most pairs commute); a commuting pair
    reads as an empty mapping.  A row is a read-only mapping shared by every
    pair with the same bracket, and a table by every signature with the
    same structure constants, so a write to a row raises.
    """

    __slots__ = ()

    def __missing__(self, key: Tuple[Generator, Generator]) -> Mapping[Generator, int]:
        return _NO_TERMS


def _bracket_table(sig: Signature, flavor: str) -> _StructureConstants:
    """Structure constants for all ordered pairs of canonical generators.

    With G_{b,a} = -G_{a,b}, G_{a,a} = 0 and the weight w_a = 1 in flavor M
    and eps_a in flavor X, the bracket is

        [G_ij, G_kl] = w_j d_jk G_il - w_j d_jl G_ik - w_i d_ik G_jl + w_i d_il G_jk

    so every constant is the int +1 or -1 in both flavors.  The M flavor's
    weights are all 1, so its table depends on n = p + q alone, and the X
    flavor's on p and n; this returns the one table built for that key
    (``_shared_table``), the same object for every signature that shares it.
    """
    p, q = sig
    return _shared_table(p + q, p if flavor == "X" else 0, flavor)


@lru_cache(maxsize=None)
def _shared_table(n: int, p: int, flavor: str) -> _StructureConstants:
    """The bracket table of ``_bracket_table`` for n generator indices, the
    first p of them with weight +1 in flavor X (p = 0 in flavor M).

    A pair that shares no index commutes, so the build visits only the
    pairs that share one, read from a per-index list of generators.  Two
    distinct generators share at most one index, so exactly one delta of
    the formula fires and every row is a single generator with its sign;
    the table holds one read-only row per (generator, sign), shared by all
    the pairs with that bracket.  The tests check the table against the
    dense matrix commutators.  Row keys follow the generator order
    (``pbw_normal_form`` pushes them in that order).
    """
    gens = generators(p, n - p, flavor)
    index = {(g.i, g.j): g for g in gens}
    w = {a: epsilon(a, p) if flavor == "X" else 1 for a in range(1, n + 1)}
    touching: Dict[int, List[Generator]] = {a: [] for a in w}
    for g in gens:
        touching[g.i].append(g)
        touching[g.j].append(g)
    rows: Dict[Tuple[Generator, int], Mapping[Generator, int]] = {}
    table = _StructureConstants()
    for ga in gens:
        i, j = ga.i, ga.j
        for gb in touching[i] + touching[j]:
            if gb is ga:
                continue
            k, l = gb.i, gb.j
            if j == k:
                c, a, b = w[j], i, l
            elif j == l:
                c, a, b = -w[j], i, k
            elif i == k:
                c, a, b = -w[i], j, l
            else:  # i == l
                c, a, b = w[i], j, k
            g, c = (index[(a, b)], c) if a < b else (index[(b, a)], -c)
            row = rows.get((g, c))
            if row is None:
                row = rows[(g, c)] = MappingProxyType({g: c})
            table[(ga, gb)] = row
    return table


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """The Lie bracket, via cached structure constants, on numerators."""
    a._require_same_ctx(b)
    table = _bracket_table(*a.ctx)
    out: Dict[Generator, int] = {}
    get = out.get
    for ga, ca in a._terms.items():
        for gb, cb in b._terms.items():
            factor = ca * cb
            for g, sc in table[(ga, gb)].items():
                out[g] = get(g, 0) + factor * sc
    return LieElement.reduced(a.ctx, out, a.den * b.den)


def jacobiator(sig: Signature, a: Generator, b: Generator, c: Generator) -> Dict[Generator, int]:
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]] for three generators of one
    flavor, as int coefficients read from the structure constants: each
    term is the sum over g of [b, c]_g [a, g].  Empty exactly when the
    Jacobi identity holds for the triple.
    """
    table = _bracket_table(sig, a.flavor)
    out: Dict[Generator, int] = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for g, s in table[(y, z)].items():
            for h, t in table[(x, g)].items():
                v = out.get(h, 0) + s * t
                if v:
                    out[h] = v
                else:
                    del out[h]
    return out


def form_B(a: LieElement, b: LieElement) -> Fraction:
    """The invariant form B(X, Y) = trace(XY) / 2.

    trace(G_g G_h) vanishes for g != h and is 2 m_ij m_ji for g = h, so the
    form is a sum over the generators the two elements share; when it is
    zero, as for two elements sharing none, it is the shared ZERO.
    """
    a._require_same_ctx(b)
    p = a.sig[0]
    total = 0
    for g, ca in a._terms.items():
        cb = b._terms.get(g)
        if cb is not None:
            mij, mji = _entries(g, p)
            total += ca * cb * mij * mji
    return Fraction(total, a.den * b.den) if total else ZERO


# -- enveloping algebra ----------------------------------------------------------


Word = Tuple[Generator, ...]


class EnvelopingElement(Combination):
    """Coefficient combination of generator words (universal algebra element)."""

    __slots__ = ()

    def __mul__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        self._require_same_ctx(other)
        out: Dict[Word, int] = {}
        get = out.get
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                w = wa + wb
                out[w] = get(w, 0) + ca * cb
        return EnvelopingElement.reduced(self.ctx, out, self.den * other.den)


def straighten(u: EnvelopingElement, last: bool = False) -> EnvelopingElement:
    """Straighten every word to non-decreasing generator order.

    Rewrites ..ab.. with a > b into ..ba.. + ..[a,b].., at the first
    inversion of a word, or at its last one when ``last`` is set, until every
    word is sorted.  The structure constants are +-1, so the numerators stay
    over u's denominator.
    """
    table = _bracket_table(*u.ctx)
    out: Dict[Word, int] = {}
    stack = list(u._terms.items())
    while stack:
        word, c = stack.pop()
        n = len(word) - 1
        for t in range(n - 1, -1, -1) if last else range(n):
            if word[t] > word[t + 1]:
                break
        else:
            acc = out.get(word, 0) + c
            if acc:
                out[word] = acc
            else:
                del out[word]
            continue
        ga, gb = word[t], word[t + 1]
        stack.append((word[:t] + (gb, ga) + word[t + 2 :], c))
        for g, sc in table[(ga, gb)].items():
            stack.append((word[:t] + (g,) + word[t + 2 :], c * sc))
    return EnvelopingElement.reduced(u.ctx, out, u.den)


def pbw_normal_form(u: EnvelopingElement) -> EnvelopingElement:
    """The PBW normal form: every word straightened at its first inversion.

    The rewriting is confluent, so the result is the canonical basis
    expansion, independent of rewrite order.
    """
    return straighten(u)


def degree2_symbol(
    u: EnvelopingElement,
) -> Dict[Tuple[Generator, Generator], Fraction]:
    """Symmetric degree-2 coefficients of the PBW normal form.

    A sorted word (a, b) contributes c/2 at (a, b) and (b, a) when a < b and
    c at (a, a); shorter words are discarded.  This is the symbol map that
    the symmetrization section is checked against.  Distinct sorted words
    give distinct pairs, so nothing is summed.
    """
    nf = pbw_normal_form(u)
    den = 2 * nf.den
    out: Dict[Tuple[Generator, Generator], Fraction] = {}
    for word, c in nf._terms.items():
        if len(word) != 2:
            continue
        a, b = word
        if a == b:
            out[word] = Fraction(2 * c, den)
        else:
            out[word] = out[(b, a)] = Fraction(c, den)
    return out


def gamma2(tensor: Combination) -> EnvelopingElement:
    """Multiplication map from a symmetric degree-2 tensor into words.

    A SymSquareTensor's ordered pairs are already words, and its constructor
    enforces the symmetry, so the image has the same terms.
    """
    return EnvelopingElement._make(tensor.ctx, tensor._terms, tensor.den)


# -- transport between flavors ------------------------------------------------------


def transport_sign(word: Sequence[Generator], p: int) -> int:
    """The product of the factors phi over a word, a sign when it is real.

    With a letters inside the second block and b mixed letters the product
    is (-1)^a * sqrt(-1)^b, which is (-1)^(a + b/2) for even b; the same
    sign carries the word from either flavor to the other.  Raises
    ValueError for odd b, where the product is imaginary.
    """
    second = mixed = 0
    for g in word:
        if g.i > p:
            second += 1
        elif g.j > p:
            mixed += 1
    if mixed % 2:
        raise ValueError("a word with an odd number of mixed generators has no real transport")
    return -1 if (second + mixed // 2) % 2 else 1


def _require_words(u: Combination) -> None:
    if isinstance(u, LieElement):
        raise TypeError("a LieElement is keyed by generators, not words")


def transport(u: C) -> C:
    """The same word-keyed combination written in the other flavor.

    Every key (an enveloping word, or a tensor's ordered pair) is relabelled
    and multiplied by its transport_sign.  The sign is the same in both
    directions, so transport is its own inverse; signs keep the terms
    canonical over the same denominator.
    """
    _require_words(u)
    sig, flavor = u.ctx
    flavor = "M" if flavor == "X" else "X"
    p = sig[0]
    return u._make(
        (sig, flavor),
        {
            tuple(Generator(g.i, g.j, flavor) for g in w): c * transport_sign(w, p)
            for w, c in u._terms.items()
        },
        u.den,
    )


# -- Casimir elements -------------------------------------------------------------


def casimir(which: str, sig: Signature) -> EnvelopingElement:
    """Quadratic Casimir elements as enveloping-algebra words.

    which = "g":  sum over all canonical pairs of X_{i,j} X-dual_{i,j};
    which = "op": sum over pairs inside the first block of X_{i,j} X_{j,i};
    which = "oq": the same inside the second block.
    """
    p, q = sig
    words: Dict[Word, int] = {}
    if which == "g":
        for g in generators(p, q, "X"):
            words[(g, g)] = dual_sign(g, p)
    elif which == "op":
        for g in generators(p, q, "X"):
            if g.j <= p:
                words[(g, g)] = -1
    elif which == "oq":
        for g in generators(p, q, "X"):
            if g.i > p:
                words[(g, g)] = -1
    else:
        raise ValueError("which must be 'g', 'op', or 'oq'")
    return EnvelopingElement(sig, "X", words)


# -- the oscillator representation --------------------------------------------------


@lru_cache(maxsize=None)
def pi_generator(g: Generator, space: VariableSpace) -> WeylOperator:
    """Operator image of a canonical M-flavor generator.

    v_i d_j - v_j d_i for a pair inside one block, -(x_i y_j + d_{x_i} d_{y_j})
    for a mixed pair: the X-flavor image divided by its factor phi.
    """
    _require_m_flavor(g.flavor)
    i0, j0 = g.i - 1, g.j - 1
    ki, kj = space.unit_key(i0), space.unit_key(j0)
    if same_block(g, space.p):
        terms = {(ki, kj): 1, (kj, ki): -1}
    else:
        terms = {(ki + kj, 0): -1, (0, ki + kj): -1}
    return WeylOperator(space, terms)


def pi_bracket(a: Generator, b: Generator, space: VariableSpace) -> WeylOperator:
    """pi([a, b]) for two M-flavor generators, read from the structure
    constants: a bracket row is one generator with +-1, so its image is the
    cached pi_generator or its cached negation, and a commuting pair gives
    zero.  The result may be a shared operator; treat it as immutable.
    """
    row = _bracket_table((space.p, space.q), "M")[(a, b)]
    if not row:
        return WeylOperator.zero(space)
    ((g, c),) = row.items()
    return pi_generator(g, space) if c == 1 else _pi_negated(g, space)


@lru_cache(maxsize=None)
def _pi_negated(g: Generator, space: VariableSpace) -> WeylOperator:
    """-pi_generator(g, space), kept like pi_generator."""
    return pi_generator(g, space).neg()


def _require_m_flavor(flavor: str) -> None:
    if flavor != "M":
        raise ValueError("pi is defined on the M flavor; transport X words first")


def pi_env(u: Combination) -> WeylOperator:
    """Image of a word-keyed combination: words become operator compositions.

    Takes an enveloping element or a symmetric tensor, whose ordered pairs
    are words of length two.  The operators act on VariableSpace(*u.sig).
    A two-letter word (a, b), a != b, whose reversal is a term too is taken
    together with it through the pair identity

        c AB + c' BA = (c + c') AB - c' [A, B]:

    one ``_leibniz`` pass with c + c' (none when that is 0), then one
    ``_commute`` pass with -c', which forms only contracted terms (none
    for commuting letters).  Every other word runs one ``_leibniz`` pass,
    its composed prefix after its last letter's image (the identity stands
    in for a missing one).  The passes add into one dict over the common
    denominator of the word images, reduced once.
    """
    _require_words(u)
    _require_m_flavor(u.flavor)
    space = VariableSpace(*u.sig)
    terms = u._terms
    # (c, c_rev, A, B) with pi(word) = A after B: c AB - c_rev [A, B]; a
    # reversed pair is taken at its word with the smaller first letter
    parts = []
    for word, c in terms.items():
        c_rev = 0
        if len(word) == 2 and word[0] != word[1]:
            if word[0] > word[1]:
                if word[::-1] in terms:
                    continue
            else:
                c_rev = terms.get(word[::-1], 0)
        if len(word) < 2:
            one = WeylOperator.identity(space)
            a, b = one, (pi_generator(word[0], space) if word else one)
        else:
            a = pi_generator(word[0], space)
            for g in word[1:-1]:
                a = a.compose(pi_generator(g, space))
            b = pi_generator(word[-1], space)
        parts.append((c + c_rev, c_rev, a, b))
    den = lcm(*(a.den * b.den for _, _, a, b in parts))
    acc: Dict[Tuple[int, int], int] = {}
    for c, c_rev, a, b in parts:
        f = den // (a.den * b.den)
        if c:
            _leibniz(space, a.rows(), b.rows(), acc, c * f)
        if c_rev:
            _commute(space, a.rows(), b.rows(), acc, -c_rev * f)
    return WeylOperator.reduced(space, acc, u.den * den)


# -- the commuting sl2 and closed Casimir forms ---------------------------------------


@lru_cache(maxsize=None)
def closed_form(which: str, p: int, q: int) -> Tuple[Tuple[Fraction, Tuple[str, ...]], ...]:
    """The Casimir images ("op", "oq", "g"), the symmetric-square element
    ("xi") and the sl2 triple ("H", "X+", "X-") commuting with every
    pi(generator), at signature (p, q), in closed form.

    A closed form is a sum of (coefficient, word) pairs with nonzero
    coefficients.  A word composes stock factors, the leftmost outermost: "E",
    "L" or "R" followed by a block name is the Euler operator, the Laplacian
    or the multiplication by r^2 of that block; the empty word is the identity.
    The "xi" row is not written out: it is Omega_op - Omega_oq -
    (p-q)/(p+q) Omega_g read off the three Casimir rows, with equal words
    merged and vanishing coefficients dropped.
    """
    if which == "xi":
        r = Fraction(p - q, p + q)
        merged: Dict[Tuple[str, ...], Fraction] = {}
        for name, s in (("op", ONE), ("oq", -ONE), ("g", -r)):
            for c, word in closed_form(name, p, q):
                merged[word] = merged.get(word, ZERO) + s * c
        return tuple((c, word) for word, c in merged.items() if c)
    half = Fraction(1, 2)
    table = {
        "op": ((1, "Ex Ex"), (p - 2, "Ex"), (-1, "Rx Lx")),
        "oq": ((1, "Ey Ey"), (q - 2, "Ey"), (-1, "Ry Ly")),
        "g": (
            (1, "Ex Ex"), (-2, "Ex Ey"), (1, "Ey Ey"), (p - q - 2, "Ex"), (q - p - 2, "Ey"),
            (-1, "Rx Ry"), (-1, "Rx Lx"), (-1, "Ry Ly"), (-1, "Lx Ly"), (-p * q, ""),
        ),
        "H": ((1, "Ey"), (-1, "Ex"), (Fraction(q - p, 2), "")),
        "X+": ((-half, "Lx"), (-half, "Ry")),
        "X-": ((half, "Rx"), (half, "Ly")),
    }
    if which not in table:
        raise ValueError(f"which must be one of {', '.join(map(repr, table))} or 'xi'")
    return tuple((Fraction(c), tuple(w.split())) for c, w in table[which] if c)


# The stock factors of closed_form words, by kind.
STOCK_OPERATORS = {"E": euler_op, "L": laplacian_op, "R": rsq_op}


@lru_cache(maxsize=None)
def closed_operator(space: VariableSpace, which: str) -> WeylOperator:
    """The closed form of `which` (see closed_form) as a composed operator."""
    out = WeylOperator.zero(space)
    for c, word in closed_form(which, space.p, space.q):
        op = WeylOperator.identity(space)
        for kind, block in word:
            op = op.compose(STOCK_OPERATORS[kind](space, block))
        out = out + op.scale(c)
    return out


def sl2_triple(space: VariableSpace) -> Tuple[WeylOperator, WeylOperator, WeylOperator]:
    """(H, X_raise, X_lower) commuting with every pi(generator)."""
    return tuple(closed_operator(space, which) for which in ("H", "X+", "X-"))


def sl2_casimir_op(space: VariableSpace) -> WeylOperator:
    """H^2 + 2(X_raise X_lower + X_lower X_raise) as a composed operator."""
    h, xp, xm = sl2_triple(space)
    return h.compose(h) + (xp.compose(xm) + xm.compose(xp)).scale(2)


@lru_cache(maxsize=None)
def pi_casimir(space: VariableSpace, which: str) -> WeylOperator:
    """pi of the Casimir words, composed exactly (no closed form used)."""
    return pi_env(transport(casimir(which, (space.p, space.q))))
