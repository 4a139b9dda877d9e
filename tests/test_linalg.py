"""The fraction-free echelon form against a reference over ``Fraction``.

``SparseRREF`` stores primitive int rows with positive pivot entries and
eliminates with integer two-row combinations.  The reference below is the
earlier implementation, which normalises every pivot row to a leading
``Fraction(1)`` and subtracts rational multiples.  Both are fed the same
integer systems, with and without a right-hand-side column, and must agree
on every status, the pivots, the residuals (up to a nonzero factor), the
particular solution and the nullspace (up to scaling each vector).  The
column index of ``SparseRREF`` is checked against a second reference, the
same echelon form scanning every stored row, which must agree exactly.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from gkverify import poly, symsq
from gkverify.linalg import SparseRREF, _eliminate, _primitive, rref_nullspace
from gkverify.poly import VariableSpace, harmonic_basis

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


# -- the column index against the scanning echelon form ----------------------


class ScanRREF(SparseRREF):
    """``add_row`` as it was before the column index: back-elimination scans
    every stored row for the new pivot column."""

    def add_row(self, row):
        red = self.residual(row)
        if not red:
            return ("dependent", None)
        unknown = [c for c in red if c != self.rhs_col]
        if not unknown:
            return ("inconsistent", self.rhs_col)
        pc = min(unknown)
        red = _primitive(red, pc)
        for opc in [opc for opc, orow in self.rows.items() if pc in orow]:
            self.rows[opc] = _primitive(_eliminate(self.rows[opc], red, pc), opc)
        self.rows[pc] = red
        return ("pivot", pc)


def scan_nullspace(rows, columns):
    """``rref_nullspace`` with the scanning echelon form and a scan for the
    rows holding each free column."""
    rref = ScanRREF()
    for row in rows:
        rref.add_row(row)
    basis = []
    for f in columns:
        if f in rref.rows:
            continue
        hits = [(pc, row) for pc, row in rref.rows.items() if f in row]
        scale = lcm(*(row[pc] for pc, row in hits))
        vec = {pc: -row[f] * (scale // row[pc]) for pc, row in hits}
        vec[f] = scale
        basis.append(_primitive(vec, f))
    basis.sort(key=lambda v: max(v.keys()), reverse=True)
    return basis


def assert_index(rref):
    """holders is exactly the column -> pivots map read off the rows."""
    want = {}
    for pc, row in rref.rows.items():
        for c in row:
            want.setdefault(c, set()).add(pc)
    assert {c: s for c, s in rref.holders.items() if s} == want


def assert_same_echelon(mine, ref):
    assert list(mine.rows) == list(ref.rows)
    assert mine.rows == ref.rows


@given(systems(rhs=True))
@settings(max_examples=200, deadline=None)
def test_indexed_echelon_is_the_scanning_echelon(system):
    rows, probes = system
    mine, ref = SparseRREF(NCOLS), ScanRREF(NCOLS)
    for r in rows:
        assert mine.add_row(dict(r)) == ref.add_row(dict(r))
        assert_index(mine)
        assert_same_echelon(mine, ref)
    for probe in probes:
        assert mine.residual(probe) == ref.residual(probe)
    assert rref_nullspace(rows, range(NCOLS)) == scan_nullspace(rows, range(NCOLS))


class _Recorder:
    """Echelon forms of one class that log every status and final row set."""

    def __init__(self, base):
        log = self.log = []

        class Recording(base):
            def add_row(self, row):
                status = super().add_row(row)
                # copies: later eliminations may update a stored row in place
                log.append((status, [(pc, dict(row)) for pc, row in self.rows.items()]))
                return status

        self.cls = Recording


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_indexed_echelon_matches_scanning_on_decompose_S2(monkeypatch, n):
    runs = []
    for base in (SparseRREF, ScanRREF):
        rec = _Recorder(base)
        monkeypatch.setattr(symsq, "SparseRREF", rec.cls)
        report = symsq.decompose_S2(n)
        runs.append((rec.log, report.dims, report.direct_sum_ok, report.invariance_ok))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("p,q", [(2, 2), (3, 5), (4, 6), (5, 5)])
def test_indexed_nullspace_matches_scanning_on_harmonic_bases(monkeypatch, p, q):
    space = VariableSpace(p, q)
    # uncached, so that the per-shape nullspace runs through the spy
    monkeypatch.setattr(poly, "_shape_basis", poly._shape_basis.__wrapped__)
    for block in ("x", "y"):
        for degree in range(5):
            runs = []
            for nullspace in (rref_nullspace, scan_nullspace):
                vectors = []

                def spy(rows, columns, nullspace=nullspace, vectors=vectors):
                    vectors.append(nullspace(rows, columns))
                    return vectors[-1]

                monkeypatch.setattr(poly, "rref_nullspace", spy)
                runs.append((vectors, harmonic_basis.__wrapped__(space, block, degree)))
            assert runs[0] == runs[1], (p, q, block, degree)
