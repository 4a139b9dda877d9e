"""Truncated expansions of module elements, the tests' reference layer.

The package decides every module identity on the K-type labels of a
typical element and never expands one.  The tests compare those zero tests
with whole expansions: a TruncatedElement is a polynomial exact up to
total degree `validity`, and apply_operator and closed_apply apply an
operator to its expansion up to the result's validity v + shift, shift
being the operator's smallest |a| - |alpha|.  That is exact: the input is
exact up to v, and a term above v has no image below v + shift; through
capped_apply, no term above the result's validity is formed.
"""

from gkverify import gkmodule
from gkverify.liealg import closed_operator
from gkverify.poly import MultiPoly, TruncationError, VariableSpace
from gkverify.weyl import WeylOperator


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
        return f"{type(self).__name__}({len(self.expansion)} terms, validity={self.validity})"


def truncated(f) -> TruncatedElement:
    """A typical (or truncated) element as its expansion, at its validity."""
    return TruncatedElement(f.expansion, f.validity)


def capped_apply(op: WeylOperator, poly: MultiPoly, cap: int) -> MultiPoly:
    """op(poly).truncate(cap), forming no term above cap: the terms of op
    that shift the degree by s read only the terms of poly up to cap - s."""
    ds, groups = op.space.deg_shift, {}
    for (km, ka), c in op._terms.items():
        groups.setdefault((km >> ds) - (ka >> ds), {})[km, ka] = c
    out = MultiPoly.zero(op.space)
    for s, terms in groups.items():
        part = WeylOperator.reduced(op.space, terms, op.den)
        out = out + part.apply(poly.truncate(cap - s))
    return out


def apply_operator(op, f) -> TruncatedElement:
    """op(f) at validity f.validity + op.min_degree_shift(); a negative
    validity raises TruncationError."""
    validity = f.validity + op.min_degree_shift()
    return TruncatedElement(capped_apply(op, f.expansion, validity), validity)


def closed_apply(which: str, f) -> TruncatedElement:
    """A closed form of liealg.closed_form (a Casimir, Xi or an sl2
    generator) applied as the composed closed_operator, at the validity and
    with the TruncationError guard of the zero tests (gkmodule._validity)."""
    space = f.space
    top = gkmodule._validity(gkmodule.closed_form(which, space.p, space.q), f)
    return TruncatedElement(capped_apply(closed_operator(space, which), f.expansion, top), top)
