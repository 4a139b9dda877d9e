"""Constructors that only the tests use."""

from fractions import Fraction
from typing import Dict, Iterable, Tuple

from gkverify.poly import ZERO, Exponents, MultiPoly, ScalarLike, VariableSpace, _numerators, exact


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
