"""Definitions that only the tests use."""

from fractions import Fraction
from typing import Dict, Iterable, Tuple

from gkverify.liealg import LieElement, pi_generator
from gkverify.poly import (
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
from gkverify.weyl import WeylOperator


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
