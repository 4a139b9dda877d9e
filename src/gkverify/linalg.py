"""Exact sparse linear algebra over the rationals.

Rows and vectors are dicts mapping integer column keys to exact entries:
an incoming row may hold ``int``s or ``Fraction``s (the obstruction solver
feeds integer rows), and stored pivot rows, normalised to a leading 1, hold
``Fraction``s.  Column keys only need a total order (plain ints or packed
monomial keys); nothing here ever divides by anything unverified, and all
reductions are exact.

The central object is an incremental reduced row echelon form: rows arrive one
at a time, each is reduced against the current pivots, and a surviving row
contributes a new pivot (after back-elimination, rows stay fully reduced).
Inhomogeneous systems append the right-hand side as one extra column; a pivot
landing in that column is an exact infeasibility certificate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

Row = Dict[int, Union[int, Fraction]]

_ONE = Fraction(1)


class SparseRREF:
    """Incremental reduced row echelon form with exact arithmetic.

    The pivot of a reduced row is its smallest column key.  rhs_col, when
    given, marks the right-hand-side column of an inhomogeneous system: a row
    reducing to support {rhs_col} is reported as inconsistent instead of
    becoming a pivot.
    """

    def __init__(self, rhs_col: Optional[int] = None) -> None:
        self.rhs_col = rhs_col
        self.rows: Dict[int, Row] = {}

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
        inv = _ONE / red[pc]
        norm = {c: v * inv for c, v in red.items()}
        norm[pc] = _ONE
        # back-eliminate the new pivot column from existing rows
        for opc, orow in self.rows.items():
            if pc in orow:
                factor = orow.pop(pc)
                for c, v in norm.items():
                    if c == pc:
                        continue
                    acc = orow.get(c)
                    acc = -factor * v if acc is None else acc - factor * v
                    if acc:
                        orow[c] = acc
                    elif c in orow:
                        del orow[c]
        self.rows[pc] = norm
        return ("pivot", pc)

    def particular_solution(self) -> Row:
        """Free unknowns 0; requires rhs_col; raises if any row is pure RHS."""
        if self.rhs_col is None:
            raise ValueError("no right-hand side attached")
        sol: Row = {}
        for pc, row in self.rows.items():
            if pc == self.rhs_col:
                raise ValueError("system is inconsistent")
            c = row.get(self.rhs_col)
            if c:
                sol[pc] = -c
        return sol

    def residual(self, row: Row) -> Row:
        """Reduce a copy of row against every current pivot, without inserting it."""
        out = {col: val for col, val in row.items() if val}
        # single pass suffices: pivot rows are fully reduced, so subtracting
        # one never reintroduces another pivot column
        for col in list(out.keys()):
            piv = self.rows.get(col)
            if piv is None:
                continue
            factor = out.pop(col)
            for c, v in piv.items():
                if c == col:
                    continue
                acc = out.get(c)
                acc = -(factor * v) if acc is None else acc - factor * v
                if acc:
                    out[c] = acc
                elif c in out:
                    del out[c]
        return out


def rref_nullspace(rows: Iterable[Row], columns: Iterable[int]) -> List[Row]:
    """Exact nullspace basis of the linear map given by rows over columns.

    Each returned vector is a dict over column keys, normalized so that its
    graded-largest support key has coefficient one; vectors are ordered by
    that leading key, descending.  The count always equals
    len(columns) - rank(rows).
    """
    rref = SparseRREF()
    for row in rows:
        rref.add_row(row)
    pivot_cols = rref.rows.keys()
    free_cols = [c for c in columns if c not in pivot_cols]
    basis: List[Row] = []
    for f in free_cols:
        vec: Row = {f: _ONE}
        for pc, row in rref.rows.items():
            v = row.get(f)
            if v:
                vec[pc] = -v
        lead = max(vec.keys())
        inv = _ONE / vec[lead]
        if inv != 1:
            vec = {c: val * inv for c, val in vec.items()}
        basis.append(vec)
    basis.sort(key=lambda v: max(v.keys()), reverse=True)
    return basis

