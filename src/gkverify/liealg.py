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
(symsq) are one type, Combination: a signature, a flavor and a dict of
nonzero rational coefficients.  The keys are generators, generator words,
and ordered generator pairs respectively; a pair is a word of length two, so
transport, which relabels every word in the other flavor times its sign, and
pi_env apply to tensors as they are.  pbw_normal_form straightens words to
non-decreasing generator order using the exact structure constants, which
is a confluent rewriting, so normal forms are canonical and equality of
enveloping elements is decidable.

The representation pi is defined on the M flavor, where it is real: it sends
M_{i,j} to the rotation field v_i d_j - v_j d_i within a block and to
-(x_i y_j + d_{x_i} d_{y_j}) across blocks, and extends to words by operator
composition.  X-flavor elements (the Casimir words, say) reach pi through
transport.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from .poly import ONE, ZERO, ScalarLike, VariableSpace
from .weyl import WeylOperator, euler_op, laplacian_op, rsq_op

Matrix = List[List[Fraction]]
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


def _entries(g: Generator, p: int) -> Tuple[Fraction, Fraction]:
    """The two nonzero entries of g's matrix: (m_ij, m_ji) at (i, j) and (j, i)."""
    if g.flavor == "M":
        return ONE, -ONE
    if g.flavor == "X":
        return Fraction(epsilon(g.j, p)), Fraction(-epsilon(g.i, p))
    raise ValueError(f"unknown flavor {g.flavor!r}")


def generator_matrix(g: Generator, sig: Signature) -> Matrix:
    n = sig[0] + sig[1]
    m = [[ZERO] * n for _ in range(n)]
    m[g.i - 1][g.j - 1], m[g.j - 1][g.i - 1] = _entries(g, sig[0])
    return m


# -- coefficient combinations ---------------------------------------------------


def sparse_sum(terms: Iterable[Tuple[Hashable, Fraction]]) -> Dict[Hashable, Fraction]:
    """Add up (key, coefficient) terms, keeping only nonzero sums."""
    out: Dict[Hashable, Fraction] = {}
    for k, c in terms:
        acc = out.get(k)
        acc = c if acc is None else acc + c
        if acc:
            out[k] = acc
        elif k in out:
            del out[k]
    return out


C = TypeVar("C", bound="Combination")


class Combination:
    """A finite combination of keys with nonzero rational coefficients, over
    one signature and one generator flavor.

    Subclasses fix what a key is: a generator (LieElement), a word of
    generators (EnvelopingElement) or an ordered generator pair
    (SymSquareTensor).  Arithmetic and equality are type-strict: a symmetric
    tensor and its multiplication image share a dict but are never equal.
    """

    __slots__ = ("sig", "flavor", "coeffs")

    def __init__(self, sig: Signature, flavor: str, coeffs: Mapping[Hashable, Fraction]) -> None:
        self.sig = sig
        self.flavor = flavor
        self.coeffs = {k: c for k, c in coeffs.items() if c}

    @classmethod
    def zero(cls: Type[C], sig: Signature, flavor: str = "X") -> C:
        return cls(sig, flavor, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "Combination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.sig != other.sig or self.flavor != other.flavor:
            raise ValueError("mismatched signature or flavor")

    def __add__(self: C, other: C) -> C:
        self._check(other)
        return type(self)(
            self.sig, self.flavor, sparse_sum(chain(self.coeffs.items(), other.coeffs.items()))
        )

    def __sub__(self: C, other: C) -> C:
        return self + other.scale(-1)

    def scale(self: C, c: ScalarLike) -> C:
        return type(self)(self.sig, self.flavor, {k: v * c for k, v in self.coeffs.items()})

    def __neg__(self: C) -> C:
        return self.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Combination):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.sig == other.sig
            and self.flavor == other.flavor
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.sig}, {self.flavor}, {len(self.coeffs)} terms)"


class LieElement(Combination):
    """A finite coefficient combination of canonical generators."""

    __slots__ = ()

    @staticmethod
    def basis(g: Generator, sig: Signature) -> "LieElement":
        return LieElement(sig, g.flavor, {g: ONE})

    def to_matrix(self) -> Matrix:
        n = self.sig[0] + self.sig[1]
        m = [[ZERO] * n for _ in range(n)]
        for g, c in self.coeffs.items():
            mij, mji = _entries(g, self.sig[0])
            i0, j0 = g.i - 1, g.j - 1
            m[i0][j0] = m[i0][j0] + c * mij
            m[j0][i0] = m[j0][i0] + c * mji
        return m


def lie_from_matrix(z: Matrix, sig: Signature, flavor: str) -> LieElement:
    """Read generator coordinates off a matrix known to lie in the algebra.

    The reconstruction is re-checked entry by entry, so feeding a matrix
    outside the span raises instead of silently projecting.
    """
    p, q = sig
    n = p + q
    coeffs: Dict[Generator, Fraction] = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entry = z[i - 1][j - 1]
            c = entry * epsilon(j, p) if flavor == "X" else entry
            if c:
                coeffs[Generator(i, j, flavor)] = c
    elt = LieElement(sig, flavor, coeffs)
    back = elt.to_matrix()
    if back != z:
        raise ValueError("matrix does not lie in the generator span")
    return elt


_NO_TERMS: Mapping[Generator, Fraction] = MappingProxyType({})


class _StructureConstants(dict):
    """Bracket rows keyed by ordered generator pairs.

    Only nonzero rows are stored (most pairs commute, and a table stays
    cached for each signature and flavor); a commuting pair reads as an
    empty mapping.
    """

    __slots__ = ()

    def __missing__(self, key: Tuple[Generator, Generator]) -> Mapping[Generator, Fraction]:
        return _NO_TERMS


SparseMatrix = Dict[Tuple[int, int], Fraction]
_Slot = Tuple[Generator, Fraction, Fraction]
_Entry = Tuple[int, int, Fraction]


def _sparse_commutator(a: Sequence[_Entry], b: Sequence[_Entry]) -> SparseMatrix:
    """AB - BA for matrices given by their nonzero (row, col, value) entries."""
    z: SparseMatrix = {}
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        for r, k, v in x:
            for k2, c, w in y:
                if k == k2:
                    z[(r, c)] = z.get((r, c), ZERO) + sign * v * w
    return {rc: v for rc, v in z.items() if v}


def _sparse_coords(
    z: SparseMatrix, slots: Mapping[Tuple[int, int], _Slot]
) -> Dict[Generator, Fraction]:
    """Generator coordinates of a sparse matrix with no stored zeros.

    ``slots`` maps the 0-based upper-triangle position (i-1, j-1) of each
    generator to (generator, m_ij, m_ji).  The coordinate c_g = z_ij / m_ij
    (the eps_j rule for flavor X) is read off the upper triangle in
    generator order, and the matrix is rebuilt from the coordinates, so a
    matrix outside the span raises as ``lie_from_matrix`` does.
    """
    coeffs: Dict[Generator, Fraction] = {}
    back: SparseMatrix = {}
    for rc in sorted(z):
        slot = slots.get(rc)
        if slot is None:
            continue
        g, mij, mji = slot
        c = z[rc] / mij
        coeffs[g] = c
        back[rc] = c * mij
        back[(rc[1], rc[0])] = c * mji
    if back != z:
        raise ValueError("matrix does not lie in the generator span")
    return coeffs


@lru_cache(maxsize=None)
def _bracket_table(sig: Signature, flavor: str) -> _StructureConstants:
    """Structure constants for all ordered pairs of canonical generators.

    Each generator matrix has two nonzero entries, so each commutator is a
    sparse product of at most eight terms; its coordinates are read off and
    re-checked by ``_sparse_coords``.  Row keys follow the generator order
    (``pbw_normal_form`` pushes them in that order), and rows share one
    object per generator and per distinct constant.
    """
    gens = generators(sig[0], sig[1], flavor)
    slots: Dict[Tuple[int, int], _Slot] = {}
    nonzero: Dict[Generator, Tuple[_Entry, _Entry]] = {}
    for g in gens:
        mij, mji = _entries(g, sig[0])
        i0, j0 = g.i - 1, g.j - 1
        slots[(i0, j0)] = (g, mij, mji)
        nonzero[g] = ((i0, j0, mij), (j0, i0, mji))
    same_const: Dict[Fraction, Fraction] = {}
    table = _StructureConstants()
    for ga in gens:
        for gb in gens:
            row = _sparse_coords(_sparse_commutator(nonzero[ga], nonzero[gb]), slots)
            if row:
                table[(ga, gb)] = {g: same_const.setdefault(c, c) for g, c in row.items()}
    return table


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """The Lie bracket, via cached structure constants."""
    a._check(b)
    table = _bracket_table(a.sig, a.flavor)
    out: Dict[Generator, Fraction] = {}
    for ga, ca in a.coeffs.items():
        for gb, cb in b.coeffs.items():
            factor = ca * cb
            for g, sc in table[(ga, gb)].items():
                add = factor * sc
                acc = out.get(g)
                acc = add if acc is None else acc + add
                if acc:
                    out[g] = acc
                elif g in out:
                    del out[g]
    return LieElement(a.sig, a.flavor, out)


def form_B(a: LieElement, b: LieElement) -> Fraction:
    """The invariant form B(X, Y) = trace(XY) / 2.

    trace(G_g G_h) vanishes for g != h and is 2 m_ij m_ji for g = h, so the
    form is a sum over the generators the two elements share.
    """
    a._check(b)
    total = ZERO
    for g, ca in a.coeffs.items():
        cb = b.coeffs.get(g)
        if cb is not None:
            mij, mji = _entries(g, a.sig[0])
            total += ca * cb * mij * mji
    return total


# -- enveloping algebra ----------------------------------------------------------


Word = Tuple[Generator, ...]


class EnvelopingElement(Combination):
    """Coefficient combination of generator words (universal algebra element)."""

    __slots__ = ()

    @staticmethod
    def one(sig: Signature, flavor: str = "X") -> "EnvelopingElement":
        return EnvelopingElement(sig, flavor, {(): ONE})

    def __mul__(self, other: "EnvelopingElement") -> "EnvelopingElement":
        self._check(other)
        out: Dict[Word, Fraction] = {}
        for wa, ca in self.coeffs.items():
            for wb, cb in other.coeffs.items():
                w = wa + wb
                add = ca * cb
                acc = out.get(w)
                acc = add if acc is None else acc + add
                if acc:
                    out[w] = acc
                elif w in out:
                    del out[w]
        return EnvelopingElement(self.sig, self.flavor, out)


def pbw_normal_form(u: EnvelopingElement) -> EnvelopingElement:
    """Straighten every word to non-decreasing generator order.

    Rewrites ..ab.. with a > b into ..ba.. + ..[a,b].. until sorted; the
    result is the canonical basis expansion, independent of rewrite order.
    """
    table = _bracket_table(u.sig, u.flavor)
    out: Dict[Word, Fraction] = {}
    stack = list(u.coeffs.items())
    while stack:
        word, c = stack.pop()
        if not c:
            continue
        pos = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos < 0:
            acc = out.get(word)
            acc = c if acc is None else acc + c
            if acc:
                out[word] = acc
            elif word in out:
                del out[word]
            continue
        ga, gb = word[pos], word[pos + 1]
        stack.append((word[:pos] + (gb, ga) + word[pos + 2 :], c))
        for g, sc in table[(ga, gb)].items():
            stack.append((word[:pos] + (g,) + word[pos + 2 :], c * sc))
    return EnvelopingElement(u.sig, u.flavor, out)


def degree2_symbol(
    u: EnvelopingElement,
) -> Dict[Tuple[Generator, Generator], Fraction]:
    """Symmetric degree-2 coefficients of the PBW normal form.

    A sorted word (a, b) contributes c/2 at (a, b) and (b, a) when a < b and
    c at (a, a); shorter words are discarded.  This is the symbol map that
    the symmetrization section is checked against.
    """
    half = Fraction(1, 2)

    def terms():
        for word, c in pbw_normal_form(u).coeffs.items():
            if len(word) != 2:
                continue
            a, b = word
            if a == b:
                yield (a, a), c
            else:
                yield (a, b), c * half
                yield (b, a), c * half

    return sparse_sum(terms())


def gamma2(tensor: Combination) -> EnvelopingElement:
    """Multiplication map from a symmetric degree-2 tensor into words.

    A SymSquareTensor's ordered pairs are already words, and its constructor
    enforces the symmetry, so the image has the same coefficients.
    """
    return EnvelopingElement(tensor.sig, tensor.flavor, tensor.coeffs)


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


def transport(u: C) -> C:
    """The same word-keyed combination written in the other flavor.

    Every key (an enveloping word, or a tensor's ordered pair) is relabelled
    and multiplied by its transport_sign.  The sign is the same in both
    directions, so transport is its own inverse.
    """
    flavor = "M" if u.flavor == "X" else "X"
    p = u.sig[0]
    return type(u)(
        u.sig,
        flavor,
        {
            tuple(Generator(g.i, g.j, flavor) for g in w): c * transport_sign(w, p)
            for w, c in u.coeffs.items()
        },
    )


# -- Casimir elements -------------------------------------------------------------


def casimir(which: str, sig: Signature) -> EnvelopingElement:
    """Quadratic Casimir elements as enveloping-algebra words.

    which = "g":  sum over all canonical pairs of X_{i,j} X-dual_{i,j};
    which = "op": sum over pairs inside the first block of X_{i,j} X_{j,i};
    which = "oq": the same inside the second block.
    """
    p, q = sig
    words: Dict[Word, Fraction] = {}
    if which == "g":
        for g in generators(p, q, "X"):
            words[(g, g)] = Fraction(dual_sign(g, p))
    elif which == "op":
        for g in generators(p, q, "X"):
            if g.j <= p:
                words[(g, g)] = -ONE
    elif which == "oq":
        for g in generators(p, q, "X"):
            if g.i > p:
                words[(g, g)] = -ONE
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


def _require_m_flavor(flavor: str) -> None:
    if flavor != "M":
        raise ValueError("pi is defined on the M flavor; transport X words first")


def pi_lie(a: LieElement) -> WeylOperator:
    _require_m_flavor(a.flavor)
    space = VariableSpace(a.sig[0], a.sig[1])
    out = WeylOperator.zero(space)
    for g, c in a.coeffs.items():
        out = out + pi_generator(g, space).scale(c)
    return out


def pi_env(u: Combination, space: Optional[VariableSpace] = None) -> WeylOperator:
    """Image of a word-keyed combination: words become operator compositions.

    Takes an enveloping element or a symmetric tensor, whose ordered pairs
    are words of length two.
    """
    _require_m_flavor(u.flavor)
    if space is None:
        space = VariableSpace(u.sig[0], u.sig[1])
    total = WeylOperator.zero(space)
    for word, c in u.coeffs.items():
        op = pi_generator(word[0], space) if word else WeylOperator.identity(space)
        for g in word[1:]:
            op = op.compose(pi_generator(g, space))
        total = total + op.scale(c)
    return total


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
        rows = (("op", ONE), ("oq", -ONE), ("g", -r))
        merged = sparse_sum(
            (word, s * c) for name, s in rows for c, word in closed_form(name, p, q)
        )
        return tuple((c, word) for word, c in merged.items())
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
    return pi_env(transport(casimir(which, (space.p, space.q))), space)
