"""Exact sparse linear algebra over the rationals, on integer rows.

Rows and vectors are dicts mapping totally ordered column keys (plain ints or
packed monomial keys) to ``int`` entries; a nonzero entry of any other type
raises TypeError.  A row stands for all its rational multiples, so callers
feed numerators.  Elimination is fraction-free: the one kernel
``_eliminate`` cancels a column by an integer combination of two rows (the
two-row step of Bareiss, *Math. Comp.* 22, 1968), and every stored pivot row
is primitive with a positive pivot entry.  Only ``particular_solution``
divides.

The central object is an incremental reduced row echelon form: rows arrive one
at a time, each is reduced against the current pivots, and a surviving row
contributes a new pivot (after back-elimination, rows stay fully reduced).
Inhomogeneous systems append the right-hand side as one extra column; a pivot
landing in that column is an exact infeasibility certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Set, Tuple

Row = Dict[int, int]


def _eliminate(row: Row, piv: Row, col: int) -> Row:
    """a*row - b*piv, a = piv[col] > 0 and b = row[col] over their gcd: col
    cancels.  row may be consumed; piv is left as it is."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    out = row if a == 1 else {c: a * v for c, v in row.items()}
    del out[col]
    get = out.get
    for c, v in piv.items():
        if c != col:
            acc = get(c, 0) - b * v
            if acc:
                out[c] = acc
            else:
                del out[c]
    return out


def _primitive(row: Row, lead: int) -> Row:
    """row divided by the gcd of its entries, signed so that row[lead] > 0."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class SparseRREF:
    """Incremental reduced row echelon form with exact arithmetic.

    The pivot of a reduced row is its smallest column key.  rhs_col, when
    given, marks the right-hand-side column of an inhomogeneous system: a row
    reducing to support {rhs_col} is reported as inconsistent instead of
    becoming a pivot.  ``holders`` indexes the stored rows by column, so
    back-elimination and ``rref_nullspace`` visit only the rows holding a
    column instead of scanning them all.
    """

    def __init__(self, rhs_col: Optional[int] = None) -> None:
        self.rhs_col = rhs_col
        self.rows: Dict[int, Row] = {}
        # column -> the pivots of the stored rows holding it
        self.holders: Dict[int, Set[int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add_row(self, row: Row) -> Tuple[str, Optional[int]]:
        """Reduce row and absorb it.

        Returns ("dependent", None), ("pivot", col), or
        ("inconsistent", rhs_col).
        """
        red = self.residual(row)
        if not red:
            return ("dependent", None)
        unknown = [c for c in red if c != self.rhs_col]
        if not unknown:
            return ("inconsistent", self.rhs_col)
        pc = min(unknown)
        red = _primitive(red, pc)
        holders = self.holders
        # back-eliminate the new pivot column from existing rows
        for opc in list(holders.get(pc, ())):
            # _eliminate may consume the old row, so read its support first
            old = set(self.rows[opc])
            new = self.rows[opc] = _primitive(_eliminate(self.rows[opc], red, pc), opc)
            for c in old - new.keys():
                holders[c].discard(opc)
            for c in new.keys() - old:
                holders.setdefault(c, set()).add(opc)
        self.rows[pc] = red
        for c in red:
            holders.setdefault(c, set()).add(pc)
        return ("pivot", pc)

    def particular_solution(self) -> Dict[int, Fraction]:
        """Free unknowns 0; requires rhs_col."""
        rhs = self.rhs_col
        if rhs is None:
            raise ValueError("no right-hand side attached")
        return {pc: Fraction(-row[rhs], row[pc]) for pc, row in self.rows.items() if rhs in row}

    def residual(self, row: Row) -> Row:
        """A multiple of row reduced against every pivot, without inserting it."""
        out = {col: val for col, val in row.items() if val}
        if any(type(val) is not int for val in out.values()):
            raise TypeError("row entries must be int")
        # single pass suffices: pivot rows are fully reduced, so subtracting
        # one never reintroduces another pivot column
        for col in list(out):
            piv = self.rows.get(col)
            if piv is not None:
                out = _eliminate(out, piv, col)
        return out


def rref_nullspace(rows: Iterable[Row], columns: Iterable[int]) -> List[Row]:
    """Exact nullspace basis of the linear map given by rows over columns.

    Each returned vector is a primitive int dict over column keys whose
    graded-largest support key has a positive coefficient; vectors are
    ordered by that leading key, descending.  The count always equals
    len(columns) - rank(rows).
    """
    rref = SparseRREF()
    for row in rows:
        rref.add_row(row)
    basis: List[Row] = []
    for f in columns:
        if f in rref.rows:
            continue
        # every row holding the free column f has its smaller pivot there,
        # so f is the leading key of its vector
        hits = [(pc, rref.rows[pc]) for pc in rref.holders.get(f, ())]
        scale = lcm(*(row[pc] for pc, row in hits))
        vec = {pc: -row[f] * (scale // row[pc]) for pc, row in hits}
        vec[f] = scale
        basis.append(_primitive(vec, f))
    basis.sort(key=lambda v: max(v.keys()), reverse=True)
    return basis
