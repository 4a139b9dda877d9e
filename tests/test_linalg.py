"""The fraction-free echelon form against a reference over ``Fraction``.

``SparseRREF`` stores primitive int rows with positive pivot entries and
eliminates with integer two-row combinations.  The reference below is the
earlier implementation, which normalises every pivot row to a leading
``Fraction(1)`` and subtracts rational multiples.  Both are fed the same
integer systems, with and without a right-hand-side column, and must agree
on every status, the pivots, the residuals (up to a nonzero factor), the
particular solution and the nullspace (up to scaling each vector).
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gkverify.linalg import SparseRREF, rref_nullspace

_ONE = Fraction(1)


class RefRREF:
    """Incremental reduced row echelon form with pivot rows scaled to 1."""

    def __init__(self, rhs_col=None):
        self.rhs_col = rhs_col
        self.rows = {}

    def add_row(self, row):
        red = self.residual(row)
        if not red:
            return ("dependent", None)
        unknown = [c for c in red if c != self.rhs_col]
        if not unknown:
            return ("inconsistent", self.rhs_col)
        pc = min(unknown)
        inv = _ONE / red[pc]
        norm = {c: v * inv for c, v in red.items()}
        for orow in self.rows.values():
            if pc in orow:
                factor = orow.pop(pc)
                for c, v in norm.items():
                    if c != pc:
                        acc = orow.get(c, 0) - factor * v
                        if acc:
                            orow[c] = acc
                        else:
                            orow.pop(c, None)
        self.rows[pc] = norm
        return ("pivot", pc)

    def particular_solution(self):
        return {
            pc: -row[self.rhs_col] for pc, row in self.rows.items() if self.rhs_col in row
        }

    def residual(self, row):
        out = {c: Fraction(v) for c, v in row.items() if v}
        for col in list(out):
            piv = self.rows.get(col)
            if piv is None:
                continue
            factor = out.pop(col)
            for c, v in piv.items():
                if c != col:
                    acc = out.get(c, 0) - factor * v
                    if acc:
                        out[c] = acc
                    else:
                        out.pop(c, None)
        return out


def ref_nullspace(rows, columns):
    rref = RefRREF()
    for row in rows:
        rref.add_row(row)
    basis = []
    for f in columns:
        if f in rref.rows:
            continue
        vec = {f: _ONE}
        for pc, row in rref.rows.items():
            if f in row:
                vec[pc] = -row[f]
        basis.append(vec)
    basis.sort(key=lambda v: max(v), reverse=True)
    return basis


def scaled(vec, key):
    """vec as Fractions, divided by its entry at key (min or max)."""
    if not vec:
        return {}
    lead = vec[key(vec)]
    return {c: Fraction(v, 1) / lead for c, v in vec.items()}


def assert_stored_rows(rref):
    for pc, row in rref.rows.items():
        assert all(type(v) is int for v in row.values()), row
        assert pc == min(c for c in row if c != rref.rhs_col)
        assert row[pc] > 0
        assert gcd(*row.values()) == 1


NCOLS = 6
entries = st.integers(min_value=-6, max_value=6)


@st.composite
def systems(draw, rhs=False):
    """Integer rows over columns 0..NCOLS-1 (plus NCOLS as right-hand side)."""
    ncols = NCOLS + 1 if rhs else NCOLS
    row = st.dictionaries(st.integers(0, ncols - 1), entries, max_size=ncols)
    return draw(st.lists(row, max_size=9)), draw(st.lists(row, max_size=4))


def _feed_both(rows, rhs_col):
    mine, ref = SparseRREF(rhs_col), RefRREF(rhs_col)
    statuses = [(mine.add_row(r), ref.add_row(r)) for r in rows]
    assert [a for a, _ in statuses] == [b for _, b in statuses]
    return mine, ref


def _compare(mine, ref, probes):
    assert mine.rank == len(ref.rows)
    assert set(mine.rows) == set(ref.rows)
    assert_stored_rows(mine)
    for pc, row in mine.rows.items():
        assert scaled(row, min) == ref.rows[pc]
    for probe in probes:
        got, want = mine.residual(probe), ref.residual(probe)
        assert bool(got) == bool(want)
        assert scaled(got, min) == scaled(want, min)
        assert all(type(v) is int for v in got.values())


@given(systems())
@settings(max_examples=200, deadline=None)
@example(([{0: 2, 1: 4}, {0: 3, 1: 6}, {1: -5, 2: 10}], [{0: 1, 1: 1, 2: 1}]))
def test_homogeneous_systems_match_the_fraction_reference(system):
    rows, probes = system
    mine, ref = _feed_both(rows, None)
    _compare(mine, ref, probes)
    got = rref_nullspace(rows, range(NCOLS))
    want = ref_nullspace(rows, range(NCOLS))
    assert len(got) == len(want) == NCOLS - mine.rank
    assert [scaled(v, max) for v in got] == want
    for v in got:
        assert all(type(c) is int for c in v.values())
        assert v[max(v)] > 0 and gcd(*v.values()) == 1


@given(systems(rhs=True))
@settings(max_examples=200, deadline=None)
@example(([{0: 2, 6: 3}, {0: 4, 1: 1, 6: 1}, {0: 2, 6: 4}], [{6: 1}]))
def test_inhomogeneous_systems_match_the_fraction_reference(system):
    rows, probes = system
    mine, ref = _feed_both(rows, NCOLS)
    _compare(mine, ref, probes)
    sol = mine.particular_solution()
    assert sol == ref.particular_solution()
    assert all(type(v) is Fraction for v in sol.values())


def test_non_int_entries_raise():
    rref = SparseRREF()
    with pytest.raises(TypeError):
        rref.add_row({0: Fraction(1, 2)})
    with pytest.raises(TypeError):
        rref.residual({0: 1, 1: 1.0})
    # a zero entry is dropped before its type is looked at
    assert rref.add_row({0: Fraction(0), 1: 2}) == ("pivot", 1)
    assert rref.rows == {1: {1: 1}}
