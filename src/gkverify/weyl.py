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
with g = sum_i gamma_i * unit_key(i), so only alpha and b are unpacked, to
find the contraction ranges.  The degree cap is checked on the total degree
(key >> deg_shift) of the uncontracted pair, the largest of its keys; each
exponent is at most the total, so this accepts exactly the keys ``pack``
accepts.

Application to a polynomial evaluates d^alpha on each monomial as a falling
factorial and shifts exponents; both directions are exact.  Composition and
application multiply int numerators and reduce once, over the product of the
two denominators.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Dict, Tuple

from .poly import MAX_EXP, Exponents, MultiPoly, ScalarLike, SparseRational, VariableSpace, exact

TermKey = Tuple[int, int]


def falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


class WeylOperator(SparseRational):
    """A normal-ordered differential operator; treat instances as immutable.

    The keys of ``_terms`` are (monomial key, derivative key) pairs; the
    context is the VariableSpace.
    """

    __slots__ = ()

    @property
    def space(self) -> VariableSpace:
        return self.ctx

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
        return max(
            ((km >> ds) - (ka >> ds) for km, ka in self._terms),
            default=0,
        )

    # -- composition ---------------------------------------------------------

    def compose(self, other: "WeylOperator") -> "WeylOperator":
        """The operator self after other, renormal-ordered exactly."""
        self._require_same_ctx(other)
        sp = self.space
        nv = sp.nvars
        ds = sp.deg_shift
        shifts = sp.shifts
        units = sp.units
        b_items = []
        for (kmb, kab), cb in other._terms.items():
            b = [(kmb >> sh) & MAX_EXP for sh in shifts]
            b_items.append((kmb, kab, cb, b, [i for i in range(nv) if b[i]]))
        acc: Dict[TermKey, int] = {}
        for (kma, kaa), ca in self._terms.items():
            alpha = [(kaa >> sh) & MAX_EXP for sh in shifts]
            for kmb, kab, cb, b, b_nonzero in b_items:
                km = kma + kmb
                kd = kaa + kab
                # the uncontracted key has the largest degree of the pair's keys
                if (km >> ds) > MAX_EXP or (kd >> ds) > MAX_EXP:
                    raise ValueError("composition would exceed the degree cap")
                # per contracted variable: (C(alpha_i, g) * falling(b_i, g), g * unit_i)
                choices = [
                    [
                        (comb(alpha[i], g) * falling(b[i], g), g * units[i])
                        for g in range(min(alpha[i], b[i]) + 1)
                    ]
                    for i in b_nonzero
                    if alpha[i]
                ]
                base = ca * cb
                for sel in itertools.product(*choices):
                    mult = 1
                    sub = 0
                    for f, u in sel:
                        mult *= f
                        sub += u
                    key = (km - sub, kd - sub)
                    add = base if mult == 1 else base * mult
                    cur = acc.get(key)
                    cur = add if cur is None else cur + add
                    if cur:
                        acc[key] = cur
                    elif key in acc:
                        del acc[key]
        return WeylOperator.reduced(sp, acc, self.den * other.den)

    def commutator(self, other: "WeylOperator") -> "WeylOperator":
        return self.compose(other) - other.compose(self)

    def power(self, k: int) -> "WeylOperator":
        if k < 0:
            raise ValueError("negative operator power")
        out = WeylOperator.identity(self.space)
        for _ in range(k):
            out = out.compose(self)
        return out

    # -- action on polynomials ----------------------------------------------

    def apply(self, f: MultiPoly) -> MultiPoly:
        if not isinstance(f, MultiPoly):
            raise TypeError(f"cannot apply an operator to {type(f).__name__}")
        if f.space != self.space:
            raise ValueError("operator and polynomial spaces differ")
        sp = self.space
        if not self._terms or f.is_zero():
            return MultiPoly.zero(sp)
        ds = sp.deg_shift
        max_m = max(km >> ds for km, _ in self._terms)
        if f.degree() + max_m > MAX_EXP:
            raise ValueError("application would exceed the degree cap")
        f_items = f._terms.items()
        out: Dict[int, int] = {}
        get = out.get
        for (km, ka), c in self._terms.items():
            alist = [(sh, (ka >> sh) & MAX_EXP) for sh in sp.shifts if (ka >> sh) & MAX_EXP]
            delta = km - ka
            for ke, ce in f_items:
                mult = c * ce
                for sh, al in alist:
                    e = (ke >> sh) & MAX_EXP
                    if e < al:
                        break
                    mult *= e if al == 1 else falling(e, al)
                else:
                    nk = ke + delta
                    out[nk] = get(nk, 0) + mult
        return MultiPoly.reduced(sp, out, self.den * f.den)

    # -- display ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        sp = self.space
        parts = []
        for km, ka in sorted(self._terms, reverse=True):
            c = Fraction(self._terms[(km, ka)], self.den)
            factors = []
            for i in range(sp.nvars):
                e = sp.exponent_of(km, i)
                if e == 1:
                    factors.append(sp.var_name(i))
                elif e > 1:
                    factors.append(f"{sp.var_name(i)}^{e}")
            for i in range(sp.nvars):
                e = sp.exponent_of(ka, i)
                if e == 1:
                    factors.append(f"D{sp.var_name(i)}")
                elif e > 1:
                    factors.append(f"D{sp.var_name(i)}^{e}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"WeylOperator({self.space.p},{self.space.q}; {len(self._terms)} terms)"


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
