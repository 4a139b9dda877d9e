"""Sparse exact polynomials in x_1..x_p, y_1..y_q.

A monomial is an exponent vector of length p+q; internally it is packed into a
single int, seven bits per variable, with x_1 occupying the most significant
variable field and the total degree stored above all of them.  Packed keys
then compare exactly like the graded lexicographic order with
x_1 > ... > x_p > y_1 > ... > y_q, keys add under monomial multiplication,
and a degree bound is one shift and compare.  Exponents and total degrees are
capped at 127, far above anything this package constructs; multiplication
guards the cap explicitly.

A polynomial over Q is stored as integer numerators over one shared
denominator (the layout of FLINT's ``fmpq_poly``): a dict from packed keys to
nonzero ``int`` numerators plus one positive ``int`` denominator.  The pair is
kept canonical after every operation -- the gcd of the denominator and all
numerators is 1, and the zero polynomial has denominator 1 -- so equality is
plain dict-and-denominator comparison.  The kernels work on ints and
normalise with one content gcd per operation, not one gcd per term;
``monomials()`` and ``coefficient()`` hand out reduced ``Fraction``s.
``SparseRational`` holds this layout and the linear structure on it, over
any hashable key context; ``MultiPoly``, ``weyl.WeylOperator`` (keyed by
pairs of packed keys) and ``liealg.Combination`` (keyed by generators,
words and generator pairs) inherit it.  Coefficients entering from outside
must be ``int`` or ``Fraction``; anything else raises TypeError.  Instances are treated as
immutable; operations return a fresh object or, when nothing changes, the
operand itself.

The module also carries the harmonic machinery used throughout: block
Laplacians and Euler operators, harmonic basis extraction as an exact
nullspace, the harmonic projection P - rho/(2d+n-4) * (Laplacian P), and
truncated radial power series in rho_x = r_x^2/2, rho_y = r_y^2/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from .linalg import rref_nullspace

__all__ = [
    "ZERO",
    "ONE",
    "VariableSpace",
    "MultiPoly",
    "RadialSeries",
    "harmonic_basis",
    "harmonic_dim",
    "dagger",
    "euler",
    "laplacian",
    "rsq",
    "rho",
    "NonHomogeneousError",
    "DegenerateDaggerError",
]

BITS = 7
MAX_EXP = (1 << BITS) - 1

Exponents = Tuple[int, ...]
Coeff = Fraction
ScalarLike = Union[int, Fraction]
# (shift, mask, spread, top, fields) of one block; see VariableSpace.block_layout
BlockLayout = Tuple[int, int, int, int, Tuple[Tuple[int, int], ...]]

ZERO = Fraction(0)
ONE = Fraction(1)

# The interned spaces, keyed by (p, q); see VariableSpace.
_SPACES: Dict[Tuple[int, int], "VariableSpace"] = {}


class NonHomogeneousError(ValueError):
    """Raised when an operation needs a block-homogeneous polynomial."""


class DegenerateDaggerError(ZeroDivisionError):
    """Raised when the harmonic projection denominator 2d+n-4 vanishes."""


@dataclass(frozen=True, init=False, eq=False)
class VariableSpace:
    """The ambient variables x_1..x_p, y_1..y_q.

    Interned: ``VariableSpace(p, q) is VariableSpace(p, q)``, so every
    check, module family and operator over one signature shares one space
    and its cached ``shifts``, ``units``, ``low_bits`` and block layouts,
    and equality and hashing are identity.  The arguments are validated
    before the table is read or written: p and q must be ints (not bools)
    with p, q >= 0 and p + q >= 1, else TypeError or ValueError, and a
    refused pair leaves nothing in the table, so ``VariableSpace(2.0, 2)``
    raises instead of aliasing ``VariableSpace(2, 2)``.
    """

    p: int
    q: int

    def __new__(cls, p: int, q: int) -> "VariableSpace":
        for name, v in (("p", p), ("q", q)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"VariableSpace {name} must be an int, not {type(v).__name__}")
        if p < 0 or q < 0 or p + q == 0:
            raise ValueError("need p, q >= 0 with p + q >= 1")
        space = _SPACES.get((p, q))
        if space is None:
            space = object.__new__(cls)
            object.__setattr__(space, "p", int(p))
            object.__setattr__(space, "q", int(q))
            space = _SPACES.setdefault((p, q), space)
        return space

    def __reduce__(self):
        return (VariableSpace, (self.p, self.q))

    @cached_property
    def nvars(self) -> int:
        return self.p + self.q

    @cached_property
    def deg_shift(self) -> int:
        return BITS * self.nvars

    def shift_of(self, i: int) -> int:
        """Bit offset of variable i (0-based; x-block first)."""
        if not 0 <= i < self.nvars:
            raise ValueError(f"variable index {i} outside range({self.nvars})")
        return BITS * (self.nvars - 1 - i)

    def unit_key(self, i: int) -> int:
        return (1 << self.deg_shift) + (1 << self.shift_of(i))

    @cached_property
    def shifts(self) -> Tuple[int, ...]:
        """``shift_of`` of every variable, in variable order."""
        return tuple(self.shift_of(i) for i in range(self.nvars))

    @cached_property
    def units(self) -> Tuple[int, ...]:
        """``unit_key`` of every variable, in variable order."""
        return tuple(self.unit_key(i) for i in range(self.nvars))

    @cached_property
    def low_bits(self) -> int:
        """The lowest bit of every variable field: ``sum(1 << sh for sh in shifts)``."""
        return sum(1 << sh for sh in self.shifts)

    def support(self, key: int) -> int:
        """The variables of a packed key: the lowest bit of each nonzero field.

        Three shifted ORs fold each field onto its lowest bit: afterwards bit
        j holds the OR of bits j..j+6, which for the lowest bit of a field
        are exactly that field's seven bits.  ``low_bits`` keeps only those
        bits, so nothing of a neighbouring field, nor of the degree field
        above x_1's, reaches the result and the degree field needs no mask.
        ``support(a) & support(b)`` is nonzero exactly when the two keys
        share a variable, and each set bit sits at that variable's shift.
        """
        key |= key >> 1
        key |= key >> 2
        key |= key >> 3
        return key & self.low_bits

    def pack(self, exps: Exponents) -> int:
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        key = 0
        total = 0
        for i, e in enumerate(exps):
            if e < 0 or e > MAX_EXP:
                raise ValueError(f"exponent {e} out of range")
            total += e
            key |= e << self.shift_of(i)
        if total > MAX_EXP:
            raise ValueError(f"total degree {total} out of range")
        return key | (total << self.deg_shift)

    def unpack(self, key: int) -> Exponents:
        return tuple((key >> sh) & MAX_EXP for sh in self.shifts)

    def exponent_of(self, key: int, i: int) -> int:
        return (key >> self.shift_of(i)) & MAX_EXP

    def block_range(self, block: str) -> range:
        if block == "x":
            return range(0, self.p)
        if block == "y":
            return range(self.p, self.nvars)
        raise ValueError("block must be 'x' or 'y'")

    def block_size(self, block: str) -> int:
        return len(self.block_range(block))

    @cached_property
    def _blocks(self) -> Dict[str, BlockLayout]:
        out = {}
        for block in ("x", "y"):
            idxs = self.block_range(block)
            if not idxs:
                out[block] = (0, 0, 0, 0, ())
                continue
            n = len(idxs)
            shift = self.shift_of(idxs[-1])
            spread = sum(1 << (BITS * i) for i in range(n))
            fields = tuple((self.shifts[i] - shift, 2 * self.units[i]) for i in idxs)
            out[block] = (shift, (1 << (BITS * n)) - 1, spread, BITS * (n - 1), fields)
        return out

    def block_layout(self, block: str) -> BlockLayout:
        """(shift, mask, spread, top, fields) of the block, cached per space.

        sub = (key >> shift) & mask cuts out a key's block part, and
        ((sub * spread) >> top) & MAX_EXP is its block degree: multiplying
        the block's fields by 1 + 2^BITS + 2^(2 BITS) + ... adds them all
        into its top field, and no partial sum carries, because none exceeds
        the total degree.  ``fields`` holds one (offset, 2 * unit_key) per
        variable of the block in variable order, where (sub >> offset) &
        MAX_EXP is the variable's exponent.
        """
        try:
            return self._blocks[block]
        except KeyError:
            raise ValueError("block must be 'x' or 'y'") from None

    def var_name(self, i: int) -> str:
        if i < self.p:
            return f"x{i + 1}"
        return f"y{i - self.p + 1}"

    def factors(self, key: int, prefix: str = "") -> List[str]:
        """The display factors of a packed key in variable order: prefix +
        name for each nonzero exponent e, followed by ^e when e > 1."""
        named = ((prefix + self.var_name(i), e) for i, e in enumerate(self.unpack(key)) if e)
        return [name if e == 1 else f"{name}^{e}" for name, e in named]


def exact(c: ScalarLike) -> ScalarLike:
    """c itself if it is an int or a Fraction; raises TypeError otherwise."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficients must be int or Fraction, not {type(c).__name__}")
    return c


def _numerators(coeffs: Mapping[Hashable, ScalarLike]) -> Tuple[Dict, int]:
    """Canonical (numerators, den) of rational coefficients, zeros dropped.

    Over the lcm of the reduced denominators the numerators already share no
    factor with it, so no content gcd is needed.
    """
    coeffs = {k: c for k, c in coeffs.items() if c}
    den = lcm(*(c.denominator for c in coeffs.values())) if coeffs else 1
    return {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}, den


class SparseRational:
    """A finite Q-linear combination of keys over one hashable context.

    ``_terms`` maps keys to nonzero int numerators and ``den`` is the shared
    positive denominator, with gcd(den, *numerators) == 1 and den == 1 for
    zero.  ``ctx`` is whatever the keys are read against: a VariableSpace
    for polynomials and operators, (signature, flavor) for the Lie-side
    combinations.  ``reduced`` establishes the invariant (as does
    ``_numerators`` for Fraction input); the constructor and ``_make``
    trust their arguments.  Subclasses give the keys their meaning and share
    the linear structure defined here; values of different subclasses never
    combine and never compare equal.
    """

    __slots__ = ("ctx", "_terms", "den")

    def __init__(self, ctx: Hashable, terms: Dict, den: int = 1) -> None:
        self.ctx = ctx
        self._terms = terms
        self.den = den

    @classmethod
    def _make(cls, ctx: Hashable, terms: Dict, den: int = 1):
        """An instance holding exactly these fields, bypassing ``__init__``."""
        obj = object.__new__(cls)
        obj.ctx = ctx
        obj._terms = terms
        obj.den = den
        return obj

    @classmethod
    def reduced(cls, ctx: Hashable, terms: Dict, den: int):
        """sum_k terms[k]/den of the key k, in canonical form.

        ``den`` must be positive.  Zero numerators (cancelled terms) are
        dropped, and the dict is reused when there are none and no common
        factor divides out.  Zero gets den 1 whatever ``den`` was; over
        den 1 nothing divides out, so no gcd is taken.
        """
        if 0 in terms.values():
            terms = {k: v for k, v in terms.items() if v}
        if not terms or den == 1:
            return cls._make(ctx, terms)
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
        return cls._make(ctx, terms, den)

    @classmethod
    def zero(cls, *ctx_args):
        """The zero element; takes the constructor's arguments before the terms."""
        return cls(*ctx_args, {})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def _require_same_ctx(self, other: "SparseRational") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError(
                f"{type(self).__name__}s over different contexts: {self.ctx} and {other.ctx}"
            )

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        self._require_same_ctx(other)
        a, b = self.den, other.den
        g = gcd(a, b)
        fa, fb = b // g, sign * (a // g)
        if len(self._terms) < len(other._terms):
            (small, fs), (big, fbig) = (self._terms, fa), (other._terms, fb)
        else:
            (small, fs), (big, fbig) = (other._terms, fb), (self._terms, fa)
        out = dict(big) if fbig == 1 else {k: v * fbig for k, v in big.items()}
        get = out.get
        for k, v in small.items():
            out[k] = get(k, 0) + v * fs
        return self.reduced(self.ctx, out, a * (b // g))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def neg(self):
        return self._make(self.ctx, {k: -c for k, c in self._terms.items()}, self.den)

    __neg__ = neg

    def scale(self, c: ScalarLike):
        if not exact(c):
            return self._make(self.ctx, {})
        n, d = c.numerator, c.denominator
        if n == d:
            return self
        return self.reduced(self.ctx, {k: v * n for k, v in self._terms.items()}, self.den * d)

    def _show(self, factors) -> str:
        """The terms as (c)*f1*f2..., keys descending, with factors(key) the
        key's display factors ("1" when there are none); "0" for zero."""
        if not self._terms:
            return "0"
        return " + ".join(
            f"({Fraction(self._terms[k], self.den)})*{'*'.join(factors(k)) or '1'}"
            for k in sorted(self._terms, reverse=True)
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.den == other.den
            and self._terms == other._terms
        )


class MultiPoly(SparseRational):
    """Sparse polynomial over Q; treat instances as immutable.

    The keys of ``_terms`` are packed monomials; the context is the
    VariableSpace.
    """

    __slots__ = ()

    @property
    def space(self) -> VariableSpace:
        return self.ctx

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(space: VariableSpace) -> "MultiPoly":
        return MultiPoly(space, {0: 1})

    @staticmethod
    def variable(space: VariableSpace, i: int) -> "MultiPoly":
        return MultiPoly(space, {space.unit_key(i): 1})

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.space.deg_shift

    def coefficient(self, exps: Exponents) -> Coeff:
        return Fraction(self._terms.get(self.space.pack(exps), 0), self.den)

    def monomials(self) -> Dict[Exponents, Coeff]:
        sp, den = self.space, self.den
        return {sp.unpack(k): Fraction(c, den) for k, c in self._terms.items()}

    def block_homogeneous_degree(self, block: str) -> int:
        """Common degree in the block's variables; raises if mixed, 0 if zero poly."""
        shift, mask, spread, top, _ = self.space.block_layout(block)
        degs = {(((k >> shift) & mask) * spread >> top) & MAX_EXP for k in self._terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise NonHomogeneousError(
                f"polynomial is not homogeneous in block {block!r}: degrees {sorted(degs)}"
            )
        return degs.pop()

    # -- ring operations ---------------------------------------------------

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        """The product; a degree past the encoding cap raises ValueError."""
        self._require_same_ctx(other)
        if not self._terms or not other._terms:
            return MultiPoly.zero(self.space)
        full = self.degree() + other.degree()
        if full > MAX_EXP:
            raise ValueError(f"product degree {full} exceeds encoding cap {MAX_EXP}")
        if len(self._terms) <= len(other._terms):
            outer, inner = self._terms, other._terms
        else:
            outer, inner = other._terms, self._terms
        acc: Dict[int, int] = {}
        get = acc.get
        inner_items = inner.items()
        for k1, c1 in outer.items():
            for k2, c2 in inner_items:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
        return MultiPoly.reduced(self.space, acc, self.den * other.den)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return self.mul(other)

    def diff(self, i: int) -> "MultiPoly":
        """Partial derivative in variable i (0-based)."""
        sp = self.space
        sh = sp.shift_of(i)
        unit = sp.unit_key(i)
        out: Dict[int, int] = {}
        for k, c in self._terms.items():
            e = (k >> sh) & MAX_EXP
            if e:
                out[k - unit] = c * e
        return MultiPoly.reduced(sp, out, self.den)

    def var_mul(self, i: int, power: int = 1) -> "MultiPoly":
        """Multiply by the i-th variable raised to power."""
        sp = self.space
        shift_key = power * sp.unit_key(i)
        if power < 0:
            raise ValueError(f"negative power {power}")
        if power == 0:
            return self
        if self._terms and self.degree() + power > MAX_EXP:
            raise ValueError("degree cap exceeded")
        return MultiPoly(
            sp, {k + shift_key: c for k, c in self._terms.items()}, self.den
        )

    # -- comparison / display ----------------------------------------------

    def __str__(self) -> str:
        return self._show(self.space.factors)

    def __repr__(self) -> str:
        return f"MultiPoly({self.space.p},{self.space.q}; {len(self._terms)} terms)"


# -- differential / multiplication helpers ---------------------------------


def euler(f: MultiPoly, block: str) -> MultiPoly:
    """Euler operator sum_i v_i d/dv_i over the block; diagonal on monomials."""
    sp = f.space
    shift, mask, spread, top, _ = sp.block_layout(block)
    out: Dict[int, int] = {}
    for k, c in f._terms.items():
        d = (((k >> shift) & mask) * spread >> top) & MAX_EXP
        if d:
            out[k] = c * d
    return MultiPoly.reduced(sp, out, f.den)


def laplacian(f: MultiPoly, block: str) -> MultiPoly:
    """Sum of second partials over the block's variables.

    A term's moves depend only on its block part (see
    VariableSpace.block_layout): one (2 unit_key, e (e - 1)) per variable
    of exponent e >= 2, in variable order.  They are listed once per
    distinct block part within the call, so a term costs one mask, one
    lookup and its own moves.
    """
    sp = f.space
    shift, mask, _, _, fields = sp.block_layout(block)
    moves_of: Dict[int, List[Tuple[int, int]]] = {}
    out: Dict[int, int] = {}
    get = out.get
    for k, c in f._terms.items():
        sub = (k >> shift) & mask
        moves = moves_of.get(sub)
        if moves is None:
            moves = moves_of[sub] = []
            for off, two_units in fields:
                e = (sub >> off) & MAX_EXP
                if e >= 2:
                    moves.append((two_units, e * (e - 1)))
        for two_units, w in moves:
            nk = k - two_units
            out[nk] = get(nk, 0) + c * w
    return MultiPoly.reduced(sp, out, f.den)


def rsq(space: VariableSpace, block: str) -> MultiPoly:
    """The squared radius r^2 of the block."""
    return MultiPoly(space, {2 * space.unit_key(i): 1 for i in space.block_range(block)})


def rho(space: VariableSpace, block: str) -> MultiPoly:
    """rho = r^2 / 2 of the block."""
    return MultiPoly.reduced(
        space, {2 * space.unit_key(i): 1 for i in space.block_range(block)}, 2
    )


# -- harmonic machinery ------------------------------------------------------


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of degree-k harmonics in n variables."""
    if k < 0:
        return 0
    first = comb(n + k - 1, n - 1) if n + k - 1 >= n - 1 else 0
    second = comb(n + k - 3, n - 1) if n + k - 3 >= n - 1 else 0
    return first - second


def _block_monomial_keys(space: VariableSpace, block: str, k: int) -> List[int]:
    """Packed keys of all degree-k monomials in the block's variables."""
    units = [space.units[i] for i in space.block_range(block)]
    return [sum(c) for c in combinations_with_replacement(units, k)]


@lru_cache(maxsize=None)
def harmonic_basis(space: VariableSpace, block: str, degree: int) -> Tuple[MultiPoly, ...]:
    """All degree-`degree` harmonics of the block, as an exact nullspace basis.

    The basis is a plain tuple of polynomials, cached per space, block and
    degree, so callers share it.  Elements are monic in the graded-lex
    leading monomial and ordered by that leading monomial, descending.  The
    nullspace is solved once per (block size, degree) by ``_shape_basis``,
    in the block's own coordinates, and re-keyed here: each key's fields
    move to the block's offset and its degree to ``deg_shift``.  That map
    keeps the order of keys, so the basis, term order included, is the one
    a nullspace over the space's own keys gives.  A negative degree or an
    empty block raises ValueError.
    """
    if degree < 0:
        raise ValueError(f"harmonic degree {degree} is negative")
    nblk = space.block_size(block)
    if nblk == 0:
        raise ValueError(f"block {block!r} is empty")
    shift, mask, _, _, _ = space.block_layout(block)
    top = degree << space.deg_shift
    return tuple(
        MultiPoly._make(space, {(k & mask) << shift | top: v for k, v in h._terms.items()}, h.den)
        for h in _shape_basis(nblk, degree)
    )


@lru_cache(maxsize=None)
def _shape_basis(nblk: int, degree: int) -> Tuple[MultiPoly, ...]:
    """The degree-`degree` harmonics of ``VariableSpace(nblk, 0)``: one exact
    nullspace of the Laplacian on the degree-`degree` monomials, whose size
    must equal the two-term binomial dimension count (AssertionError
    otherwise)."""
    space = VariableSpace(nblk, 0)
    cols = _block_monomial_keys(space, "x", degree)
    rows: Dict[int, Dict[int, int]] = {}
    for src in cols:
        for i in range(nblk):
            e = space.exponent_of(src, i)
            if e >= 2:
                tgt = src - 2 * space.unit_key(i)
                rows.setdefault(tgt, {})[src] = e * (e - 1)
    # With smallest-key pivots each nullspace vector's graded-lex leading key
    # is its free column, which no other vector touches: scaled monic there,
    # the vectors form the canonical reduced basis.
    vectors = rref_nullspace(rows.values(), cols)
    expected = harmonic_dim(nblk, degree)
    if len(vectors) != expected:
        raise AssertionError(
            f"harmonic count mismatch: got {len(vectors)}, expected {expected}"
        )
    return tuple(MultiPoly.reduced(space, v, v[max(v)]) for v in vectors)


def dagger(P: MultiPoly, block: str) -> MultiPoly:
    """Harmonic projection P - rho/(2d + n - 4) * (Laplacian P).

    P must be homogeneous of some degree d in the block.  When Laplacian^2 P
    vanishes (the only case this package ever feeds in), the result is
    block-harmonic.  Raises DegenerateDaggerError when 2d + n - 4 == 0.
    """
    d = P.block_homogeneous_degree(block)
    nblk = P.space.block_size(block)
    den = 2 * d + nblk - 4
    lap = laplacian(P, block)
    if lap.is_zero():
        return P
    if den == 0:
        raise DegenerateDaggerError(
            f"projection denominator 2*{d}+{nblk}-4 vanishes"
        )
    return P - rho(P.space, block).mul(lap).scale(Fraction(1, den))


# -- truncated radial series -------------------------------------------------


class RadialSeries:
    """Truncated power series in rho_x and rho_y with exact coefficients.

    coeffs maps (a, b) to the coefficient of rho_x^a * rho_y^b; cutoff is the
    guaranteed-correct total polynomial degree: every term with
    2a + 2b <= cutoff is present and exact, nothing above is stored.
    """

    __slots__ = ("coeffs", "cutoff")

    def __init__(self, coeffs: Dict[Tuple[int, int], Coeff], cutoff: int) -> None:
        self.cutoff = cutoff
        self.coeffs = {
            ab: c for ab, c in coeffs.items() if exact(c) and 2 * (ab[0] + ab[1]) <= cutoff
        }

    def expand(self, space: VariableSpace, top: Optional[int] = None) -> MultiPoly:
        """The series as a polynomial, complete up to min(cutoff, top)."""
        limit = self.cutoff if top is None else min(self.cutoff, top)
        # c rho_x^a rho_y^b = (c / 2^(a+b)) (r_x^2)^a (r_y^2)^b: integer
        # powers of r^2, weighted by numerators over one common denominator
        weights = [
            (a, b, Fraction(c, 1 << (a + b)))
            for (a, b), c in sorted(self.coeffs.items())
            if 2 * (a + b) <= limit
        ]
        if not weights:
            return MultiPoly.zero(space)
        den = lcm(*(w.denominator for _, _, w in weights))
        rx = rsq(space, "x")
        ry = rsq(space, "y")
        pow_x: Dict[int, MultiPoly] = {0: MultiPoly.one(space)}
        pow_y: Dict[int, MultiPoly] = {0: MultiPoly.one(space)}

        def power(cache: Dict[int, MultiPoly], base: MultiPoly, k: int) -> MultiPoly:
            if k not in cache:
                cache[k] = power(cache, base, k - 1).mul(base)
            return cache[k]

        acc: Dict[int, int] = {}
        get = acc.get
        for a, b, w in weights:
            n = w.numerator * (den // w.denominator)
            for k, v in power(pow_x, rx, a).mul(power(pow_y, ry, b))._terms.items():
                acc[k] = get(k, 0) + n * v
        return MultiPoly.reduced(space, acc, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadialSeries):
            return NotImplemented
        return self.cutoff == other.cutoff and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"RadialSeries({len(self.coeffs)} terms, cutoff={self.cutoff})"
