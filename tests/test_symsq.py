"""Symmetric-square tensors: transport, invariance, decomposition, the criterion."""

import gc
import json
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from gkverify.liealg import (
    EnvelopingElement,
    Generator,
    LieElement,
    bracket,
    canonical,
    closed_form,
    closed_operator,
    gamma2,
    generators,
    pi_env,
    pi_generator,
    same_block,
)
from gkverify.linalg import SparseRREF, rref_nullspace
from gkverify.poly import ONE, ZERO, VariableSpace
from gkverify.symsq import (
    SymSquareTensor,
    _adjoint_rows,
    _coords,
    _form_ad_invariance_certificate,
    _form_diagonal_certificate,
    _pair_coord,
    _span_invariant,
    adjoint_action,
    build_Q,
    build_S2,
    build_S4,
    build_Xi,
    decompose_S2,
    gamma2_q_identity,
    gamma2_xi_identity,
    generating_set,
    s4_vanishing,
    theorem_ingredients,
    transport,
    xi_closed_form,
)
from gkverify import symsq
from gkverify.checks import execute_jobs, plan_jobs, selected_checks
from gkverify.gkmodule import ModuleParams
from gkverify.weyl import WeylOperator
from helpers import pairing

SIG = (2, 2)
MGENS = generators(*SIG, "M")


def test_symmetry_is_enforced():
    a, b = MGENS[0], MGENS[1]
    with pytest.raises(ValueError):
        SymSquareTensor(SIG, "M", {(a, b): ONE})
    SymSquareTensor(SIG, "M", {(a, b): ONE, (b, a): ONE})
    SymSquareTensor(SIG, "M", {(a, a): Fraction(3)})


def test_q_frozen_small():
    q = build_Q(SIG, "M")
    assert set(q.coeffs) == {(g, g) for g in MGENS}
    for g in MGENS:
        assert q.coeffs[(g, g)] == -2
    qx = build_Q(SIG, "X")
    for g in generators(*SIG, "X"):
        same_block = g.j <= 2 or g.i > 2
        assert qx.coeffs[(g, g)] == (-2 if same_block else 2)


def test_transport_roundtrip_on_q():
    qx = build_Q(SIG, "X")
    assert transport(qx) == build_Q(SIG, "M")
    assert transport(transport(qx)) == qx


def _slot_entries(gens):
    return st.lists(
        st.tuples(
            st.sampled_from(gens),
            st.sampled_from(gens),
            st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
        ),
        min_size=0,
        max_size=5,
    )


slot_entries = _slot_entries(MGENS)
symmetric_tensors = slot_entries.map(lambda entries: _symmetrize(entries))


def _odd_slot(a, b):
    """Exactly one of the two slot generators crosses the blocks."""
    return same_block(a, SIG[0]) != same_block(b, SIG[0])


# tensors whose every slot holds an even number of mixed generators: the ones
# the real sign transport accepts
even_tensors = slot_entries.map(
    lambda entries: _symmetrize([(a, b, c) for a, b, c in entries if not _odd_slot(a, b)])
)


def _symmetrize(entries, sig=SIG):
    coeffs = {}
    for a, b, c in entries:
        for key in ((a, b), (b, a)):
            acc = coeffs.get(key, ZERO) + c
            if acc:
                coeffs[key] = acc
            elif key in coeffs:
                del coeffs[key]
    return SymSquareTensor(sig, "M", coeffs)


@given(symmetric_tensors, symmetric_tensors)
@settings(max_examples=30)
def test_pairing_is_symmetric_bilinear(s, t):
    assert pairing(s, t) == pairing(t, s)
    assert pairing(s + t, t) == pairing(s, t) + pairing(t, t)
    assert pairing(s.scale(Fraction(2, 3)), t) == pairing(s, t) * Fraction(2, 3)


@given(symmetric_tensors)
@settings(max_examples=30)
def test_pairing_is_definite_on_real_tensors(t):
    val = pairing(t, t)
    if t.is_zero():
        assert val == ZERO
    else:
        assert val > 0


@given(even_tensors)
@settings(max_examples=25)
def test_transport_roundtrip(t):
    # from either flavor, on a tensor and on its multiplication image
    for s in (t, transport(t)):
        for u in (s, gamma2(s)):
            assert transport(transport(u)) == u
    assert transport(gamma2(t)) == gamma2(transport(t))


def test_transport_refuses_odd_slots():
    a, b = Generator(1, 2, "M"), Generator(1, 3, "M")
    t = SymSquareTensor(SIG, "M", {(a, b): ONE, (b, a): ONE})
    for u in (t, gamma2(t)):
        with pytest.raises(ValueError):
            transport(u)


@given(symmetric_tensors)
@settings(max_examples=25)
def test_tensor_never_equals_its_enveloping_image(t):
    u = gamma2(t)
    assert u.coeffs == t.coeffs
    assert t != u and u != t
    with pytest.raises(TypeError):
        t + u
    assert LieElement.zero(SIG, "M") != SymSquareTensor.zero(SIG, "M")


def _pi_tensor_reference(t, space):
    """Slotwise image of a tensor: the sum of c * pi(a) pi(b) over its pairs."""
    total = WeylOperator.zero(space)
    for (a, b), c in t.coeffs.items():
        total = total + pi_generator(a, space).compose(pi_generator(b, space)).scale(c)
    return total


def _random_m_tensors(sig):
    entries = _slot_entries(generators(*sig, "M"))
    return entries.map(lambda e: _symmetrize(e, sig))


@given(st.sampled_from([(2, 2), (1, 3), (3, 3)]).flatmap(_random_m_tensors))
@settings(max_examples=40, deadline=None)
def test_pi_env_matches_slotwise_tensor_image(t):
    space = VariableSpace(*t.sig)
    assert pi_env(t) == _pi_tensor_reference(t, space)
    assert pi_env(t) == pi_env(EnvelopingElement(t.sig, "M", t.coeffs))


@given(symmetric_tensors, st.sampled_from(MGENS), st.sampled_from(MGENS))
@settings(max_examples=25, deadline=None)
def test_adjoint_action_is_a_lie_action(t, ga, gb):
    from gkverify.liealg import bracket

    a = LieElement.basis(ga, SIG)
    b = LieElement.basis(gb, SIG)
    lhs = adjoint_action(bracket(a, b), t)
    rhs = adjoint_action(a, adjoint_action(b, t)) - adjoint_action(
        b, adjoint_action(a, t)
    )
    assert lhs == rhs


def test_q_is_invariant():
    for sig in [(2, 2), (2, 4), (3, 3)]:
        q = build_Q(sig, "M")
        for g in generators(*sig, "M"):
            assert adjoint_action(LieElement.basis(g, sig), q).is_zero()


def test_s2_family_is_trace_free():
    for sig in [(2, 2), (2, 4)]:
        n = sum(sig)
        total = build_S2(sig, 1, 1)
        for i in range(2, n + 1):
            total = total + build_S2(sig, i, i)
        assert total.is_zero()


def _fraction_S2_diagonal(sig, i):
    """build_S2(sig, i, i) as Fraction arithmetic: the contraction, minus Q/n."""
    n = sum(sig)
    coeffs = {}
    for k in range(1, n + 1):
        if k != i:
            gik, s1 = canonical(i, k, "M")
            gki, s2 = canonical(k, i, "M")
            for key in ((gik, gki), (gki, gik)):
                coeffs[key] = coeffs.get(key, 0) + Fraction(s1 * s2, 2)
    return SymSquareTensor(sig, "M", coeffs) - build_Q(sig, "M").scale(Fraction(1, n))


@pytest.mark.parametrize("sig", [(4, 4), (3, 5), (5, 5), (2, 8)])
def test_s2_diagonal_matches_the_fraction_reference(sig):
    for i in range(1, sum(sig) + 1):
        assert build_S2(sig, i, i) == _fraction_S2_diagonal(sig, i), i


def test_xi_definition_matches_closed_form():
    for sig in [(2, 2), (2, 4), (3, 3), (4, 4)]:
        assert build_Xi(sig) == xi_closed_form(sig)


def test_xi_closed_form_frozen_small():
    # diagonal -1 on first-block pairs, +1 on second-block pairs, plus
    # -(p-q)/(2n) times the split Casimir tensor; at p = q the Q part drops
    xi = xi_closed_form(SIG)
    gens = generators(*SIG, "X")
    for g in gens:
        if g.j <= 2:
            assert xi.coeffs[(g, g)] == -ONE
        elif g.i > 2:
            assert xi.coeffs[(g, g)] == ONE
        else:
            assert (g, g) not in xi.coeffs


@pytest.mark.parametrize("sig", [(2, 2), (1, 3), (3, 3), (2, 4), (4, 4), (5, 3)])
def test_xi_closed_form_row_is_the_image_of_xi(sig):
    # The "xi" row of closed_form is derived from the three Casimir rows; its
    # operator must equal the image of the tensor built from its definition.
    space = VariableSpace(*sig)
    assert closed_operator(space, "xi") == pi_env(transport(gamma2(build_Xi(sig))))


def test_xi_closed_form_row_sizes():
    # equal words merged, zero coefficients dropped; at p = q the (p-q)/(p+q)
    # part, and with it every mixed Ex Ey, Rx Ry, Lx Ly and constant word, is gone
    sizes = {sig: len(closed_form("xi", *sig)) for sig in [(4, 6), (4, 4), (3, 3), (5, 3)]}
    assert sizes == {(4, 6): 10, (4, 4): 6, (3, 3): 6, (5, 3): 9}
    for c, word in closed_form("xi", 4, 4):
        assert c and len({factor[1] for factor in word}) <= 1


def test_gamma2_identities():
    for sig in [(2, 2), (2, 4), (3, 3), (4, 4)]:
        assert gamma2_q_identity(sig)
        assert gamma2_xi_identity(sig)


def test_s4_operator_images_vanish():
    for sig, expected in [((2, 2), 1), ((2, 4), 15), ((3, 3), 15)]:
        count, all_zero = s4_vanishing(sig)
        assert count == expected == comb(sum(sig), 4)
        assert all_zero


def test_decomposition_dimensions():
    for n, dims in [(4, (1, 1, 9, 10)), (5, (1, 5, 14, 35)), (6, (1, 15, 20, 84))]:
        rep = decompose_S2(n)
        assert rep.dims == dims
        N = n * (n - 1) // 2
        assert rep.total_dim == N * (N + 1) // 2
        assert rep.direct_sum_ok
        assert all(rep.invariance_ok.values())
        assert all(rep.certificates.values())
        assert rep.all_ok()


def _families(n):
    """The spanning tensors of the three explicit pieces at (n, 0), by
    label, in the order decompose_S2 builds them.  The builders are read
    off the module, so a test that patches one sees its tensors here."""
    sig = (n, 0)
    return {
        "empty": (symsq.build_Q(sig, "M"),),
        "(1,1,1,1)": tuple(symsq.build_S4(sig, *idx) for idx in combinations(range(1, n + 1), 4)),
        "(2)": tuple(
            symsq.build_S2(sig, i, j)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            if not (i == n and j == n)
        ),
    }


def test_decompose_S2_report_holds_no_tensor():
    # the memo keeps verdicts only; the walk does find a tensor planted in a field
    def reachable(obj):
        seen, stack = set(), [obj]
        while stack:
            o = stack.pop()
            if id(o) in seen or isinstance(o, type):
                continue
            seen.add(id(o))
            yield o
            stack.extend(gc.get_referents(o))

    for n in (4, 8, 10):
        rep = decompose_S2(n)
        values = [getattr(rep, f.name) for f in fields(rep)]
        assert not any(isinstance(o, SymSquareTensor) for v in values for o in reachable(v))
        planted = replace(rep, swept={"empty": build_Q((n, 0), "M")})
        assert any(isinstance(o, SymSquareTensor) for o in reachable(planted.swept))


def _e22_basis(rep):
    """The (2,2) piece as the exact orthocomplement of the three explicit
    pieces: the nullspace of their rows under the pairing weights (2 off the
    diagonal, 1 on it) over all unordered generator pairs."""
    sig = (rep.n, 0)
    gens = generators(rep.n, 0, "M")
    pairs = {_pair_coord(a, b): (a, b) for ai, a in enumerate(gens) for b in gens[ai:]}
    weighted = [
        {_pair_coord(a, b): c * (1 if a == b else 2) for (a, b), c in t._terms.items() if a <= b}
        for basis in _families(rep.n).values()
        for t in basis
    ]
    basis = []
    for vec in rref_nullspace(weighted, sorted(pairs)):
        coeffs = {}
        for coord, v in vec.items():
            a, b = pairs[coord]
            coeffs[(a, b)] = coeffs[(b, a)] = v
        basis.append(SymSquareTensor(sig, "M", coeffs))
    return basis


def test_decomposition_pieces_are_orthogonal():
    rep = decompose_S2(4)
    e22 = _e22_basis(rep)
    assert len(e22) == rep.dims[3]
    flat = [(label, t) for label, basis in _families(4).items() for t in basis]
    flat += [("(2,2)", t) for t in e22]
    for i, (la, ta) in enumerate(flat):
        for lb, tb in flat[i + 1 :]:
            if la != lb:
                assert pairing(ta, tb) == ZERO


def _reference_sweep(n, tensors):
    """All-generator invariance of the span of tensors, by its own
    elimination over ordered-pair coordinates."""
    sig = (n, 0)
    keys = {}
    span = SparseRREF()

    def row(t):
        return {keys.setdefault(k, len(keys)): c for k, c in t._terms.items()}

    for t in tensors:
        span.add_row(row(t))
    return all(
        not span.residual(row(adjoint_action(LieElement.basis(x, sig), t)))
        for x in generators(n, 0, "M")
        for t in tensors
    )


@pytest.mark.parametrize("n", [4, 5])
def test_e22_piece_is_invariant_under_every_generator(n):
    # what the certificate chain proves without building the piece
    rep = decompose_S2(n)
    assert _reference_sweep(n, _e22_basis(rep))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_generating_set_sweep_matches_all_generator_reference(n):
    rep = decompose_S2(n)
    families = _families(n)
    assert tuple(len(basis) for basis in families.values()) == rep.dims[:3]
    assert rep.images_checked == (n - 1) * sum(len(basis) for basis in families.values())
    assert rep.certificates["generating_set"]
    xs = generating_set(n)
    assert xs == tuple(Generator(i, i + 1, "M") for i in range(1, n))
    for label, basis in families.items():
        assert _reference_sweep(n, basis)
        assert _span_invariant(n, xs, [_coords(t) for t in basis])[0]
        assert rep.invariance_ok[label]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_joint_rank_matches_a_fresh_echelon_form(n):
    # decompose_S2 takes the joint rank on the largest family's span
    rep = decompose_S2(n)
    fresh = SparseRREF()
    for basis in _families(n).values():
        for t in basis:
            fresh.add_row(_coords(t))
    assert rep.total_dim - rep.dims[3] == fresh.rank
    assert rep.direct_sum_ok == (fresh.rank == sum(rep.dims[:3]))
    assert rep.direct_sum_ok


@pytest.mark.parametrize("n", [5, 7])
def test_span_invariant_leaves_its_span_unchanged(n):
    xs = generating_set(n)
    count = 0
    for basis in _families(n).values():
        rows = [_coords(t) for t in basis]
        fresh = SparseRREF()
        for row in rows:
            fresh.add_row(row)
        ok, span = _span_invariant(n, xs, rows)
        assert ok
        count += len(xs) * len(rows)
        assert span.rows == fresh.rows and span.holders == fresh.holders
    assert decompose_S2(n).images_checked == count


def _content_free(row):
    """row divided by the positive gcd of its nonzero entries."""
    row = {k: v for k, v in row.items() if v}
    g = gcd(*row.values())
    return {k: v // g for k, v in row.items()} if row else row


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_adjoint_rows_are_the_image_rows_of_the_reached_tensors(n):
    # every generator, not only the generating set, against the tensor-level
    # action; equal content-free rows share the primitive form and the sign.
    # Each spanning tensor's images are all diagonal or all off-diagonal, so
    # sums of neighbours are added to weigh the diagonal against the rest.
    # A tensor that the sweep does not reach must have a zero image.
    gens = generators(n, 0, "M")
    spanning = [t for basis in _families(n).values() for t in basis]
    tensors = spanning + [s + t for s, t in zip(spanning, spanning[1:])]
    sweep = list(_adjoint_rows(n, gens, [_coords(t) for t in tensors]))
    assert len(sweep) == len(gens)
    nonzero = skipped = 0
    for x, reached in zip(gens, sweep):
        assert set(reached) <= set(range(len(tensors)))
        for idx, t in enumerate(tensors):
            image = adjoint_action(LieElement.basis(x, (n, 0)), t)
            if idx in reached:
                want = _content_free(_coords(image))
                assert _content_free(reached[idx]) == want, (t, x)
                nonzero += bool(want)
            else:
                assert image.is_zero(), (t, x)
                skipped += 1
    assert nonzero > len(tensors)
    # from n = 6 on, an S4 tensor can miss both indices of x
    assert (skipped > 0) == (n >= 6)


@pytest.mark.parametrize("n", [8, 10])
def test_sweep_reduces_only_the_reached_images(monkeypatch, n):
    # Every echelon form counts its absorbed rows and its residuals; a row
    # reduced without being absorbed is a swept image.  One form per piece
    # sweeps: Q is reached by every x, an S4 tensor by the x sharing an
    # index with it, and every S2 tensor by every x.  The joint rank adds
    # the Q and S2 rows to the S4 form after its sweep, and the
    # generating-set closure only absorbs.
    counts = []

    class Counting(SparseRREF):
        def __init__(self, *args):
            super().__init__(*args)
            counts.append([0, 0])
            self.calls = counts[-1]

        def add_row(self, row):
            self.calls[0] += 1
            return super().add_row(row)

        def residual(self, row):
            self.calls[1] += 1
            return super().residual(row)

    monkeypatch.setattr(symsq, "SparseRREF", Counting)
    rep = decompose_S2.__wrapped__(n)
    assert rep.all_ok()
    s4, s2 = comb(n, 4), n * (n + 1) // 2 - 1
    assert rep.images_checked == (n - 1) * (1 + s4 + s2)
    swept = sorted(residuals - added for added, residuals in counts if residuals > added)
    reached_s4 = (n - 1) * (s4 - comb(n - 2, 4))
    assert reached_s4 == {8: 385, 10: 1260}[n]
    assert swept == sorted([n - 1, reached_s4, (n - 1) * s2])
    # no form of its own for the joint rank: the three family forms and
    # the closure, and the S4 form absorbs 1 + s2 rows more than it has
    assert len(counts) == 4
    absorbed = sorted(added for added, residuals in counts if residuals > added)
    assert absorbed == sorted([1, s4 + 1 + s2, s2])


def test_decompose_S2_runs_once_per_n():
    decompose_S2.cache_clear()
    jobs = plan_jobs(selected_checks(["symsq"]), [(2, 6, 0), (3, 5, 0), (4, 4, 0)], 3, 3)
    results = [r for r in execute_jobs(jobs) if r.name == "symsq.decomposition"]
    assert [r.status for r in results] == ["pass"] * 3
    assert len({json.dumps(r.detail, sort_keys=True) for r in results}) == 1
    assert decompose_S2.cache_info()[:2] == (2, 1)  # hits, misses
    rep = decompose_S2(8)
    with pytest.raises(FrozenInstanceError):
        rep.n = 9
    with pytest.raises(TypeError):
        rep.certificates["generating_set"] = False
    with pytest.raises(TypeError):
        rep.swept["(2)"] = False


def _dense_ad_invariance(n, xs):
    """The skewness condition over every x in xs and every generator pair."""
    table = symsq._bracket_table((n, 0), "M")
    gens = generators(n, 0, "M")
    return all(
        table[(x, a)].get(b, 0) + table[(x, b)].get(a, 0) == 0
        for x in xs
        for a in gens
        for b in gens
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_sparse_ad_invariance_matches_dense_loop(n):
    xs = generating_set(n)
    assert _form_ad_invariance_certificate(n, xs)
    assert _dense_ad_invariance(n, xs)


@pytest.mark.parametrize("n", [4, 5])
def test_flipped_structure_constant_fails_both_ad_invariance_loops(monkeypatch, n):
    real = symsq._bracket_table((n, 0), "M")
    xs = generating_set(n)
    flips = [(x, a, b) for x in xs for a in generators(n, 0, "M") for b in real[(x, a)]]
    assert len(flips) == (n - 1) * 2 * (n - 2)
    for x, a, b in flips:
        flipped = type(real)(real)
        flipped[(x, a)] = {**real[(x, a)], b: -real[(x, a)][b]}
        monkeypatch.setattr(symsq, "_bracket_table", lambda sig, flavor: flipped)
        assert not _form_ad_invariance_certificate(n, xs), (x, a, b)
        assert not _dense_ad_invariance(n, xs), (x, a, b)
    monkeypatch.undo()
    assert _form_ad_invariance_certificate(n, xs)


def _dense_form_diagonal(n):
    """The form on every ordered pair of basis elements: -1 on the diagonal
    and 0 off it, the N^2 loop that _form_diagonal_certificate replaced."""
    basis = [LieElement.basis(g, (n, 0)) for g in generators(n, 0, "M")]
    return all(
        symsq.form_B(ea, eb) == (-ONE if ia == ib else ZERO)
        for ia, ea in enumerate(basis)
        for ib, eb in enumerate(basis)
    )


@pytest.mark.parametrize("n", [4, 5, 6, 10])
def test_form_diagonal_certificate_matches_dense_loop(monkeypatch, n):
    from gkverify.liealg import _entries

    calls = []
    real = symsq.form_B
    monkeypatch.setattr(symsq, "form_B", lambda a, b: calls.append(a) or real(a, b))
    assert _form_diagonal_certificate(n)
    assert len(calls) == n * (n - 1) // 2
    assert _dense_form_diagonal(n)

    def successor_pairing(a, b):
        # pairs each generator of a with the next canonical generator in b
        gens = generators(n, 0, "M")
        total = ZERO
        for g, ca in a.coeffs.items():
            partner = gens[(gens.index(g) + 1) % len(gens)]
            cb = b.coeffs.get(partner)
            if cb is not None:
                mij, mji = _entries(g, n)
                total += ca * cb * mij * mji
        return total

    monkeypatch.setattr(symsq, "form_B", successor_pairing)
    assert not _form_diagonal_certificate(n)
    assert not _dense_form_diagonal(n)


def _flip_first_slot(t):
    """t with the coefficient of its first ordered pair (and its mirror) negated."""
    coeffs = dict(t.coeffs)
    a, b = min(coeffs)
    coeffs[(a, b)] = coeffs[(b, a)] = -coeffs[(a, b)]
    return SymSquareTensor(t.sig, t.flavor, coeffs)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize(
    "builder,label,first", [("build_S4", "(1,1,1,1)", (1, 2, 3, 4)), ("build_S2", "(2)", (1, 2))]
)
def test_corrupted_spanning_tensor_fails_both_sweeps(monkeypatch, n, builder, label, first):
    real = getattr(symsq, builder)

    def corrupted(sig, *idx):
        t = real(sig, *idx)
        return _flip_first_slot(t) if idx == first else t

    monkeypatch.setattr(symsq, builder, corrupted)
    rep = decompose_S2.__wrapped__(n)
    basis = _families(n)[label]
    assert not _reference_sweep(n, basis)
    assert not rep.invariance_ok[label]
    assert not rep.certificates["families_invariant"]
    assert not rep.all_ok()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_generating_set_missing_one_element_fails(monkeypatch, n):
    xs = generating_set(n)
    for drop in range(n - 1):
        monkeypatch.setattr(symsq, "generating_set", lambda n: xs[:drop] + xs[drop + 1 :])
        rep = decompose_S2.__wrapped__(n)
        assert not rep.certificates["generating_set"], drop
        assert not any(rep.invariance_ok.values()), drop
        assert not rep.all_ok()


def test_theorem_ingredients_consistency():
    rep0 = theorem_ingredients(ModuleParams(2, 4, 0, 1))
    assert rep0.joseph_consistent and rep0.predicted and rep0.matches_prediction()
    rep1 = theorem_ingredients(ModuleParams(4, 4, 1, 1))
    assert rep1.matches_prediction() and not rep1.joseph_consistent
    # the failure must sit in the obstruction step alone
    assert rep1.casimir_step_ok and rep1.s4_step_ok
    assert not rep1.obstruction.exists


def test_theorem_report_serializes():
    rep = theorem_ingredients(ModuleParams(2, 4, 0, 1))
    d = rep.to_dict()
    assert d["joseph_consistent"] is True
    assert d["predicted"] is True


def _reference_generating_set(n, xs):
    """The generating-set certificate formed through LieElement brackets."""
    sig = (n, 0)
    column = {g: idx for idx, g in enumerate(generators(n, 0, "M"))}
    span = SparseRREF()
    frontier = [LieElement.basis(x, sig) for x in xs]
    while frontier:
        v = frontier.pop()
        if span.add_row({column[g]: c for g, c in v._terms.items()})[0] == "pivot":
            frontier.extend(bracket(LieElement.basis(x, sig), v) for x in xs)
    return span.rank == len(column)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_table_rows_generating_set_matches_the_lie_element_path(n):
    # the generating set, each set missing one element, pairs of far
    # neighbours and one generator with a long chain
    gens = generators(n, 0, "M")
    xs = generating_set(n)
    cases = [xs] + [xs[:d] + xs[d + 1 :] for d in range(n - 1)]
    cases += [(gens[0], gens[-1]), (Generator(1, 2, "M"), Generator(2, n, "M"))]
    cases += [tuple(g for g in gens if g.i == 1)]
    seen = set()
    for xs_ in cases:
        got = symsq._generating_set_certificate(n, xs_)
        assert got == _reference_generating_set(n, xs_), xs_
        seen.add(got)
    assert seen == {True, False}
