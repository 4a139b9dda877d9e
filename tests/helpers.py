"""Definitions that only the tests use."""

from fractions import Fraction
from itertools import islice, product
from math import comb
from typing import Dict, Iterable, Tuple

from gkverify.liealg import LieElement, pi_generator
from gkverify.poly import (
    BITS,
    MAX_EXP,
    ZERO,
    Exponents,
    MultiPoly,
    RadialSeries,
    ScalarLike,
    VariableSpace,
    _numerators,
    exact,
)
from gkverify.symsq import SymSquareTensor
from gkverify.weyl import WeylOperator, falling


def from_monomials(
    space: VariableSpace, entries: Iterable[Tuple[Exponents, ScalarLike]]
) -> MultiPoly:
    """The polynomial sum c * v^exps over (exps, c) entries; equal exponents add.

    Coefficients must be int or Fraction (TypeError otherwise)."""
    terms: Dict[int, Fraction] = {}
    for exps, c in entries:
        if exact(c):
            key = space.pack(exps)
            terms[key] = terms.get(key, ZERO) + Fraction(c)
    return MultiPoly(space, *_numerators(terms))


def pi_lie(a: LieElement) -> WeylOperator:
    """The image of a Lie element of the M flavor: the sum of its
    generators' images, each with denominator 1, over a.den."""
    space = VariableSpace(*a.sig)
    acc: Dict[Tuple[int, int], int] = {}
    for g, c in a._terms.items():
        for key, v in pi_generator(g, space)._terms.items():
            acc[key] = acc.get(key, 0) + c * v
    return WeylOperator.reduced(space, acc, a.den)


def two_pass_commutator(A: WeylOperator, B: WeylOperator, ba: bool = True) -> WeylOperator:
    """[A, B] as two Leibniz passes into one dict: A after B, then, negated,
    B after A, each forming only the contractions with |gamma| >= 1 (the
    uncontracted terms of the two orders cancel) and checking the degree cap
    on every pair.  With ``ba=False`` the second pass is left out: a wrong
    kernel that misses every contraction of B's derivatives with A's
    variables."""
    A._require_same_ctx(B)
    acc: Dict[Tuple[int, int], int] = {}
    _contracted_pass(A.space, A.rows(), B.rows(), acc, 1)
    if ba:
        _contracted_pass(A.space, B.rows(), A.rows(), acc, -1)
    return WeylOperator.reduced(A.space, acc, A.den * B.den)


def _contracted_pass(sp: VariableSpace, a_rows, b_rows, acc, sign) -> None:
    """Add sign * (A after B) into acc, only its terms with |gamma| >= 1."""
    ds = sp.deg_shift
    deg_one = 1 << ds
    for kma, kaa, ca, _, sup_alpha, _ in a_rows:
        for kmb, kab, cb, sup_b, _, _ in b_rows:
            km, kd = kma + kmb, kaa + kab
            if (km | kd) >> (ds + BITS):
                raise ValueError("composition would exceed the degree cap")
            shared = sup_alpha & sup_b
            choices = []
            while shared:
                sh = shared.bit_length() - 1
                shared ^= 1 << sh
                al, bi = (kaa >> sh) & MAX_EXP, (kmb >> sh) & MAX_EXP
                unit = deg_one + (1 << sh)
                choices.append(
                    [(comb(al, g) * falling(bi, g), g * unit) for g in range(min(al, bi) + 1)]
                )
            for sel in product(*choices):
                sub = sum(u for _, u in sel)
                if not sub:
                    continue
                mult = 1
                for f, _ in sel:
                    mult *= f
                key = (km - sub, kd - sub)
                cur = acc.get(key, 0) + sign * ca * cb * mult
                if cur:
                    acc[key] = cur
                else:
                    acc.pop(key, None)


def pairing(s: SymSquareTensor, t: SymSquareTensor) -> Fraction:
    """Coefficient dot product over ordered pairs (the trace pairing, M flavor)."""
    s._require_same_ctx(t)
    acc = sum(v * t._terms.get(k, 0) for k, v in s._terms.items())
    return Fraction(acc, s.den * t.den)


def shift_rho(series: RadialSeries, block: str, j: int) -> RadialSeries:
    """series times rho_block^j; the guaranteed degree grows by 2j."""
    dx, dy = (j, 0) if block == "x" else (0, j)
    out = {(a + dx, b + dy): c for (a, b), c in series.coeffs.items()}
    return RadialSeries(out, series.cutoff + 2 * j)


def wrong_label_rule(mutant: str):
    """gkmodule._label_rule, as it is when called, with one mistake:
    - "L_n_minus_1": n - 1 in the Laplacian row;
    - "E_without_2a": the Euler row multiplies by k alone;
    - "c_over_2k_plus_n_minus_1", "c_over_2k_plus_n": c = 1/(2k + n - 1) or
      1/(2k + n) in the V and D rows;
    - "D_without_2ac": the D row of d_v h multiplies by 1, not 1 + 2a c;
    - "V_without_c_row": v h (r^2)^a is V h (r^2)^a alone, without c d_v h
      (r^2)^(a+1)."""
    from gkverify import gkmodule

    real = gkmodule._label_rule
    c_shift = {"c_over_2k_plus_n_minus_1": 1, "c_over_2k_plus_n": 2}.get(mutant)

    def rule(kind, a, k, n):
        if mutant == "L_n_minus_1" and kind == "L":
            return real(kind, a, k, n - 1)
        if c_shift and kind in "VD":
            return real(kind, a, k, n + c_shift)
        if mutant == "E_without_2a" and kind == "E":
            return ((k, 1, "h", a),)
        rows = real(kind, a, k, n)
        if mutant == "D_without_2ac" and kind == "D":
            (_, den, moved, a2), rest = rows
            return ((den, den, moved, a2), rest)
        if mutant == "V_without_c_row" and kind == "V":
            return rows[:1]
        return rows

    return rule


def product_contract(acc, km, kd, k_alpha, k_b, shared, base, deg_one, off_at=None) -> None:
    """The product-over-choices form of ``weyl._contract``, with the same
    signature, adding the same keys in the same order: per shared field
    (highest shift first) the list of (C(alpha_i, g) * falling(b_i, g),
    g * unit_i), then every selection but the all-zero one.  With
    ``off_at`` the factor of the contraction g = off_at is one too large
    in every field: a wrong multiplier."""
    choices = []
    while shared:
        sh = shared.bit_length() - 1
        shared ^= 1 << sh
        al, bi = (k_alpha >> sh) & MAX_EXP, (k_b >> sh) & MAX_EXP
        unit = deg_one + (1 << sh)
        choices.append(
            [
                (comb(al, g) * falling(bi, g) + (g == off_at), g * unit)
                for g in range(min(al, bi) + 1)
            ]
        )
    for sel in islice(product(*choices), 1, None):
        mult = 1
        sub = 0
        for f, u in sel:
            mult *= f
            sub += u
        key = (km - sub, kd - sub)
        cur = acc.get(key, 0) + base * mult
        if cur:
            acc[key] = cur
        else:
            acc.pop(key, None)
