"""Polynomial-coefficient differential operators in normal order.

An operator is a sum of terms  c * v^a * d^alpha  with every variable written
to the left of every derivative; a term is keyed by the packed pair
(monomial key, derivative multi-index key) in one shared VariableSpace.  The
coefficients are stored as ``MultiPoly``'s are (``poly.SparseRational``): int
numerators over one shared denominator, reduced after every operation.  The
normal-ordered representation is canonical, so operator equality is literal
dict-and-denominator equality.

Composition uses the two-multi-index Leibniz expansion: moving d^alpha across
v^b produces, for every contraction gamma <= min(alpha, b) componentwise,

    prod_i  C(alpha_i, gamma_i) * falling(b_i, gamma_i)
        * v^(a + b - gamma) * d^(alpha + beta - gamma).

Packed keys add under this rule (the packed-exponent technique of Monagan
and Pearce, CASC 2007): the new key pair is (km_a + km_b - g, kd_a + kd_b - g)
with g = sum_i gamma_i * unit_key(i).  The variables a term pair can
contract are read from the keys without unpacking them: each term carries
the supports of its monomial and derivative keys (``VariableSpace.support``,
one bit per nonzero exponent field), built once per operator, and
support(alpha) & support(b) is the pair's contractible set.  Only those
shared fields of alpha and b are unpacked, to find the contraction ranges.
A field's factors m_g = C(alpha_i, g) * falling(b_i, g) come from the
recurrence m_g = m_(g-1) * (alpha_i - g + 1) * (b_i - g + 1) / g, exact in
ints.  Almost every contracting pair shares one variable; its contractions
g = 1 .. min(alpha_i, b_i) are added in one loop, and only two or more
shared variables take the product of the per-field lists.  The degree cap
is checked on the total degree (key >> deg_shift) of the uncontracted pair,
the largest of its keys; each exponent is at most the total, so this
accepts exactly the keys ``pack`` accepts.

The commutator [A, B] = AB - BA makes one pass over the term pairs.  For
terms c_a v^a d^alpha and c_b v^b d^beta both orders have the uncontracted
key pair (km_a + km_b, kd_a + kd_b) and coefficient c_a * c_b, so those
terms cancel and are never formed; the pair's degree cap is checked once,
on that key, so the commutator raises exactly when ``compose`` would.  The
pair adds AB's contractions over support(alpha) & support(b) and, negated,
BA's over support(beta) & support(a), through ``_contract``, the one
Leibniz expansion that ``compose`` uses too.

Application to a polynomial evaluates d^alpha on each monomial as a falling
factorial and shifts exponents; both directions are exact.  A term without
derivatives only adds its monomial key to each input key; a derivative term
reads only the fields its support marks.  Each operator keeps one table,
``rows()``, built on its first composition or application: per term the
keys, the coefficient, the two supports and the (shift, alpha_i) derivative
fields.  The Leibniz kernel reads the supports and application reads the
derivative fields, so repeated use of one operator unpacks nothing.
Composition and application multiply int numerators and reduce once, over
the product of the two denominators.  ``liealg.pi_env`` runs the same kernel
once per word, the composed prefix after the last letter's image, into one
dict for the whole combination, and reduces that once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Tuple

from .poly import (
    BITS,
    MAX_EXP,
    Exponents,
    MultiPoly,
    ScalarLike,
    SparseRational,
    VariableSpace,
    exact,
)

__all__ = [
    "WeylOperator",
    "euler_op",
    "laplacian_op",
    "rsq_op",
]

TermKey = Tuple[int, int]


def falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


class WeylOperator(SparseRational):
    """A normal-ordered differential operator; treat instances as immutable.

    The keys of ``_terms`` are (monomial key, derivative key) pairs; the
    context is the VariableSpace.  ``rows()`` is the one table that
    composition and application read, built on first use.
    """

    __slots__ = ("_rows",)

    @property
    def space(self) -> VariableSpace:
        return self.ctx

    def rows(self) -> list:
        """(km, ka, c, support(km), support(ka), alpha) for every term, in
        term order, where alpha holds (shift, alpha_i) for each derivative
        variable, read from the set bits of support(ka), highest shift first
        (empty for a term without derivatives).

        Built on first use and kept, so an operator composed or applied many
        times (a cached generator image) unpacks its keys once.
        """
        try:
            return self._rows
        except AttributeError:
            support = self.ctx.support
            rows = self._rows = []
            for (km, ka), c in self._terms.items():
                sup_ka = support(ka)
                alpha = []
                bits = sup_ka
                while bits:
                    sh = bits.bit_length() - 1
                    bits ^= 1 << sh
                    alpha.append((sh, (ka >> sh) & MAX_EXP))
                rows.append((km, ka, c, support(km), sup_ka, alpha))
            return rows

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(space: VariableSpace) -> "WeylOperator":
        return WeylOperator(space, {(0, 0): 1})

    @staticmethod
    def term(
        space: VariableSpace,
        mono: Exponents,
        deriv: Exponents,
        coeff: ScalarLike = 1,
    ) -> "WeylOperator":
        c = Fraction(exact(coeff))
        if not c:
            return WeylOperator.zero(space)
        key = (space.pack(mono), space.pack(deriv))
        return WeylOperator(space, {key: c.numerator}, c.denominator)

    @staticmethod
    def diff(space: VariableSpace, i: int) -> "WeylOperator":
        return WeylOperator(space, {(0, space.unit_key(i)): 1})

    @staticmethod
    def var(space: VariableSpace, i: int) -> "WeylOperator":
        return WeylOperator(space, {(space.unit_key(i), 0): 1})

    # -- inspection --------------------------------------------------------

    def max_derivative_order(self) -> int:
        """Largest total derivative degree |alpha| over the terms; 0 if none."""
        ds = self.space.deg_shift
        return max((ka >> ds for _, ka in self._terms), default=0)

    def min_degree_shift(self) -> int:
        """Smallest |a| - |alpha| over the terms: how far application can lower degree."""
        ds = self.space.deg_shift
        return min(
            ((km >> ds) - (ka >> ds) for km, ka in self._terms),
            default=0,
        )

    def degree_raise(self) -> int:
        """Largest |a| - |alpha| over the terms: how far application can raise degree."""
        ds = self.space.deg_shift
        return max(((km >> ds) - (ka >> ds) for km, ka in self._terms), default=0)

    # -- composition ---------------------------------------------------------

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """The operator self after other, renormal-ordered exactly.

        One pass of ``_leibniz`` over every contraction, reduced once over
        the product of the two denominators.
        """
        self._require_same_ctx(other)
        acc: Dict[TermKey, int] = {}
        _leibniz(self.space, self.rows(), other.rows(), acc, 1)
        return WeylOperator.reduced(self.space, acc, self.den * other.den)

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        """self other - other self, with only the contracted terms formed.

        One pass over the term pairs: each pair's cap is checked once, then
        ``_contract`` adds AB's contractions and, negated, BA's, into one
        dict reduced once over the product of the denominators.
        """
        self._require_same_ctx(other)
        sp = self.space
        over = sp.deg_shift + BITS
        deg_one = 1 << sp.deg_shift
        acc: Dict[TermKey, int] = {}
        b_rows = other.rows()
        for kma, kaa, ca, sup_a, sup_alpha, _ in self.rows():
            for kmb, kab, cb, sup_b, sup_beta, _ in b_rows:
                km = kma + kmb
                kd = kaa + kab
                if (km | kd) >> over:
                    raise ValueError("composition would exceed the degree cap")
                ab = sup_alpha & sup_b
                ba = sup_beta & sup_a
                if ab:
                    _contract(acc, km, kd, kaa, kmb, ab, ca * cb, deg_one)
                if ba:
                    _contract(acc, km, kd, kab, kma, ba, -ca * cb, deg_one)
        return WeylOperator.reduced(sp, acc, self.den * other.den)

    def power(self, k: int) -> "WeylOperator":
        if k < 0:
            raise ValueError("negative operator power")
        out = WeylOperator.identity(self.space)
        for _ in range(k):
            out = out.compose(self)
        return out

    # -- action on polynomials ----------------------------------------------

    def apply(self, f: MultiPoly) -> MultiPoly:
        """The polynomial self(f).

        A term v^a d^alpha sends a monomial of degree d to degree
        d + |a| - |alpha|.  A term without derivatives shifts each key by its
        monomial key, and a derivative term tests the exponents of a
        monomial before it multiplies coefficients; both read the term's
        key shift km - ka and derivative fields from ``rows()``.  The
        encoding cap is guarded on the degree of the result, which no
        exponent of it exceeds: each row's degree raise is tested against
        the room f leaves, before the row adds anything.
        """
        if not isinstance(f, MultiPoly):
            raise TypeError(f"cannot apply an operator to {type(f).__name__}")
        if f.ctx is not self.ctx and f.ctx != self.ctx:
            raise ValueError("operator and polynomial spaces differ")
        sp = self.space
        if not self._terms or f.is_zero():
            return MultiPoly.zero(sp)
        ds = sp.deg_shift
        room = MAX_EXP - f.degree()
        items = f._terms.items()
        out: Dict[int, int] = {}
        get = out.get
        for km, ka, c, _, _, alpha in self.rows():
            if (km >> ds) - (ka >> ds) > room:
                full = f.degree() + self.degree_raise()
                raise ValueError(f"application degree {full} exceeds encoding cap {MAX_EXP}")
            delta = km - ka
            if not alpha:
                for ke, ce in items:
                    nk = ke + delta
                    out[nk] = get(nk, 0) + c * ce
                continue
            for ke, ce in items:
                mult = 1
                for sh, al in alpha:
                    e = (ke >> sh) & MAX_EXP
                    if e < al:
                        break
                    mult *= e if al == 1 else falling(e, al)
                else:
                    nk = ke + delta
                    out[nk] = get(nk, 0) + c * ce * mult
        return MultiPoly.reduced(sp, out, self.den * f.den)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        sp = self.space
        return self._show(lambda key: sp.factors(key[0]) + sp.factors(key[1], "D"))

    def __repr__(self) -> str:
        return f"WeylOperator({self.space.p},{self.space.q}; {len(self._terms)} terms)"


def _leibniz(
    sp: VariableSpace,
    a_rows: list,
    b_rows: list,
    acc: Dict[TermKey, int],
    sign: int,
) -> None:
    """Add sign * (A after B) numerators into acc, over A.den * B.den.

    ``sign`` is any int: 1 from ``compose``, a word's coefficient from
    ``liealg.pi_env``.  ``a_rows`` and ``b_rows`` are ``A.rows()`` and
    ``B.rows()``, of which the kernel reads the keys, coefficients and
    supports.  Each pair adds its uncontracted term, then, when
    support(alpha) & support(b) is not empty, its contractions through
    ``_contract``; that one AND decides it with no exponent unpacked.  The
    uncontracted term comes first, which fixes the insertion order of acc.
    The degree cap is checked on every pair's uncontracted key.
    """
    over = sp.deg_shift + BITS
    deg_one = 1 << sp.deg_shift
    for kma, kaa, ca, _, sup_alpha, _ in a_rows:
        sca = sign * ca
        for kmb, kab, cb, sup_b, _, _ in b_rows:
            km = kma + kmb
            kd = kaa + kab
            # the uncontracted key has the largest degree of the pair's keys;
            # a degree above MAX_EXP has a bit at or above deg_shift + BITS
            if (km | kd) >> over:
                raise ValueError("composition would exceed the degree cap")
            base = sca * cb
            key = (km, kd)
            cur = acc.get(key)
            cur = base if cur is None else cur + base
            if cur:
                acc[key] = cur
            elif key in acc:
                del acc[key]
            shared = sup_alpha & sup_b
            if shared:
                _contract(acc, km, kd, kaa, kmb, shared, base, deg_one)


def _contract(
    acc: Dict[TermKey, int],
    km: int,
    kd: int,
    k_alpha: int,
    k_b: int,
    shared: int,
    base: int,
    deg_one: int,
) -> None:
    """Add base times every contraction with |gamma| >= 1 of d^alpha across
    v^b into acc, at (km - g, kd - g) for the uncontracted keys (km, kd).

    ``k_alpha`` and ``k_b`` are the packed keys of alpha and b, and
    ``shared`` is support(alpha) & support(b), the only fields read, in
    variable order (highest shift first), which fixes the insertion order
    of acc.  Each shared field has alpha_i, b_i >= 1, so the first
    selection is the only one with gamma = 0, and it is skipped.  The
    factors m_g follow the recurrence of the module docstring; one shared
    field adds its contractions g = 1, 2, ... in one loop, and two or more
    take the product of the per-field lists.
    """
    if not shared & (shared - 1):
        sh = shared.bit_length() - 1
        al = (k_alpha >> sh) & MAX_EXP
        bi = (k_b >> sh) & MAX_EXP
        unit = deg_one + (1 << sh)
        mult = 1
        for g in range(1, min(al, bi) + 1):
            mult = mult * (al - g + 1) * (bi - g + 1) // g
            km -= unit
            kd -= unit
            key = (km, kd)
            add = base * mult
            cur = acc.get(key)
            cur = add if cur is None else cur + add
            if cur:
                acc[key] = cur
            elif key in acc:
                del acc[key]
        return
    # per shared variable: (m_g, g * unit_i) for g = 0 .. min(alpha_i, b_i)
    choices = []
    while shared:
        sh = shared.bit_length() - 1
        shared ^= 1 << sh
        al = (k_alpha >> sh) & MAX_EXP
        bi = (k_b >> sh) & MAX_EXP
        unit = deg_one + (1 << sh)
        mult = 1
        field = [(1, 0)]
        for g in range(1, min(al, bi) + 1):
            mult = mult * (al - g + 1) * (bi - g + 1) // g
            field.append((mult, g * unit))
        choices.append(field)
    for sel in itertools.islice(itertools.product(*choices), 1, None):
        mult = 1
        sub = 0
        for f, u in sel:
            mult *= f
            sub += u
        key = (km - sub, kd - sub)
        add = base * mult
        cur = acc.get(key)
        cur = add if cur is None else cur + add
        if cur:
            acc[key] = cur
        elif key in acc:
            del acc[key]


# -- stock operators ----------------------------------------------------------


def euler_op(space: VariableSpace, block: str) -> WeylOperator:
    """sum_i v_i d/dv_i over the block."""
    terms = {
        (space.unit_key(i), space.unit_key(i)): 1
        for i in space.block_range(block)
    }
    return WeylOperator(space, terms)


def laplacian_op(space: VariableSpace, block: str) -> WeylOperator:
    terms = {(0, 2 * space.unit_key(i)): 1 for i in space.block_range(block)}
    return WeylOperator(space, terms)


def rsq_op(space: VariableSpace, block: str) -> WeylOperator:
    terms = {(2 * space.unit_key(i), 0): 1 for i in space.block_range(block)}
    return WeylOperator(space, terms)
