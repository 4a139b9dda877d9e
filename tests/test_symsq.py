"""Symmetric-square tensors: transport, invariance, decomposition, the criterion."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gkverify.liealg import (
    EnvelopingElement,
    Generator,
    LieElement,
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
    pairing,
    s4_vanishing,
    theorem_ingredients,
    transport,
    xi_closed_form,
)
from gkverify import symsq
from gkverify.gkmodule import ModuleParams
from gkverify.weyl import WeylOperator

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


def _e22_basis(rep):
    """The (2,2) piece as the exact orthocomplement of the three explicit
    pieces: the nullspace of their rows under the pairing weights (2 off the
    diagonal, 1 on it) over all unordered generator pairs."""
    sig = (rep.n, 0)
    gens = generators(rep.n, 0, "M")
    pairs = {_pair_coord(a, b): (a, b) for ai, a in enumerate(gens) for b in gens[ai:]}
    weighted = [
        {_pair_coord(a, b): c * (1 if a == b else 2) for (a, b), c in t._terms.items() if a <= b}
        for piece in rep.subspaces
        for t in piece.basis
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
    flat = [(s.label, t) for s in rep.subspaces for t in s.basis]
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
    assert rep.images_checked == (n - 1) * sum(s.dimension for s in rep.subspaces)
    assert rep.certificates["generating_set"]
    xs = generating_set(n)
    assert xs == tuple(Generator(i, i + 1, "M") for i in range(1, n))
    for piece in rep.subspaces:
        assert _reference_sweep(n, piece.basis)
        assert _span_invariant(n, xs, piece.basis)[0]
        assert rep.invariance_ok[piece.label]


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
    rep = decompose_S2(n)
    basis = next(s for s in rep.subspaces if s.label == label).basis
    assert not _reference_sweep(n, basis)
    assert not rep.invariance_ok[label]
    assert not rep.certificates["families_invariant"]
    assert not rep.all_ok()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_generating_set_missing_one_element_fails(monkeypatch, n):
    xs = generating_set(n)
    for drop in range(n - 1):
        monkeypatch.setattr(symsq, "generating_set", lambda n: xs[:drop] + xs[drop + 1 :])
        rep = decompose_S2(n)
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
