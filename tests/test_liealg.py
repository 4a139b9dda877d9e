"""Lie algebra structure, the operator realization, and the PBW machinery."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gkverify import liealg
from gkverify.liealg import (
    EnvelopingElement,
    Generator,
    LieElement,
    _bracket_table,
    bracket,
    casimir,
    closed_operator,
    degree2_symbol,
    dual_sign,
    form_B,
    gamma2,
    generators,
    pbw_normal_form,
    pi_casimir,
    pi_env,
    pi_generator,
    same_block,
    sl2_casimir_op,
    sl2_triple,
    transport,
)
from gkverify.poly import ONE, ZERO, VariableSpace
from gkverify.symsq import SymSquareTensor, build_Q, build_S2, build_S4, build_Xi, s4_vanishing
from gkverify.weyl import WeylOperator
from helpers import pi_lie


def generator_matrix(g, sig):
    """The n x n matrix of the generator g of signature sig."""
    n = sig[0] + sig[1]
    m = [[ZERO] * n for _ in range(n)]
    m[g.i - 1][g.j - 1], m[g.j - 1][g.i - 1] = liealg._entries(g, sig[0])
    return m


def to_matrix(elt):
    """The matrix of a Lie element: its generators' matrices, scaled."""
    n = elt.sig[0] + elt.sig[1]
    m = [[ZERO] * n for _ in range(n)]
    for g, c in elt.coeffs.items():
        mij, mji = liealg._entries(g, elt.sig[0])
        m[g.i - 1][g.j - 1] += c * mij
        m[g.j - 1][g.i - 1] += c * mji
    return m


def lie_from_matrix(z, sig, flavor):
    """Read generator coordinates off a matrix known to lie in the algebra.

    The reconstruction is re-checked entry by entry, so feeding a matrix
    outside the span raises instead of silently projecting.
    """
    p, q = sig
    n = p + q
    coeffs = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entry = z[i - 1][j - 1]
            c = entry * liealg.epsilon(j, p) if flavor == "X" else entry
            if c:
                coeffs[Generator(i, j, flavor)] = c
    elt = LieElement(sig, flavor, coeffs)
    if to_matrix(elt) != z:
        raise ValueError("matrix does not lie in the generator span")
    return elt


SIG = (2, 2)
GENS = generators(*SIG, "X")
MGENS = generators(*SIG, "M")

gen_strategy = st.sampled_from(GENS)
lie_elements = st.lists(
    st.tuples(
        gen_strategy,
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4),
    ),
    min_size=0,
    max_size=4,
).map(
    lambda entries: sum(
        (LieElement.basis(g, SIG).scale(c) for g, c in entries),
        LieElement.zero(SIG, "X"),
    )
)


def test_generator_count():
    # dim of the algebra is n(n-1)/2
    for p, q in [(1, 1), (2, 2), (2, 4), (3, 3), (4, 6)]:
        n = p + q
        assert len(generators(p, q, "X")) == n * (n - 1) // 2
        assert len(generators(p, q, "M")) == n * (n - 1) // 2


def test_generator_matrices_frozen():
    # same-block generator is antisymmetric, mixed is symmetric off-diagonal
    mat = generator_matrix(Generator(1, 2, "X"), SIG)
    assert mat[0][1] == ONE and mat[1][0] == -ONE
    mixed = generator_matrix(Generator(1, 3, "X"), SIG)
    assert mixed[0][2] == -ONE and mixed[2][0] == -ONE
    m = generator_matrix(Generator(1, 3, "M"), SIG)
    assert m[0][2] == ONE and m[2][0] == -ONE


def test_matrix_roundtrip():
    a = LieElement.basis(Generator(1, 4, "X"), SIG).scale(Fraction(2, 3))
    b = LieElement.basis(Generator(3, 4, "X"), SIG).scale(-2)
    elem = a + b
    assert lie_from_matrix(to_matrix(elem), SIG, "X") == elem


@given(lie_elements, lie_elements)
@settings(max_examples=30)
def test_bracket_antisymmetry(a, b):
    assert bracket(a, b) == bracket(b, a).scale(-1)
    assert bracket(a, a).is_zero()


@given(lie_elements, lie_elements, lie_elements)
@settings(max_examples=30)
def test_bracket_jacobi(a, b, c):
    jac = (
        bracket(a, bracket(b, c))
        + bracket(b, bracket(c, a))
        + bracket(c, bracket(a, b))
    )
    assert jac.is_zero()


def _dense_product(ma, mb):
    n = len(ma)
    return [
        [sum(ma[i][k] * mb[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _dense_commutator(ma, mb):
    ab, ba = _dense_product(ma, mb), _dense_product(mb, ma)
    return [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]


@given(lie_elements, lie_elements)
@settings(max_examples=25)
def test_bracket_matches_matrix_commutator(a, b):
    comm = _dense_commutator(to_matrix(a), to_matrix(b))
    assert lie_from_matrix(comm, SIG, "X") == bracket(a, b)


@pytest.mark.parametrize(
    "sig", [(2, 2), (1, 3), (3, 3), (2, 5), (4, 0), (1, 1), (0, 4), (1, 7), (4, 4), (7, 1)]
)
@pytest.mark.parametrize("flavor", ["X", "M"])
def test_bracket_table_matches_dense_commutators(sig, flavor):
    # the table from the bracket formula equals the dense commutator read by
    # lie_from_matrix, row for row and in key order (pbw_normal_form depends
    # on that order)
    gens = generators(*sig, flavor)
    # the entries are 0 and +-1, so the dense products run on ints
    mats = {g: [[int(x) for x in row] for row in generator_matrix(g, sig)] for g in gens}
    table = _bracket_table(sig, flavor)
    assert all(row for row in table.values())
    for a in gens:
        for b in gens:
            dense = lie_from_matrix(_dense_commutator(mats[a], mats[b]), sig, flavor)
            assert list(table[(a, b)].items()) == list(dense.coeffs.items())


@given(lie_elements, lie_elements)
@settings(max_examples=25)
def test_form_matches_half_trace(a, b):
    prod = _dense_product(to_matrix(a), to_matrix(b))
    assert form_B(a, b) == sum((prod[i][i] for i in range(len(prod))), ZERO) / 2


def test_duality_of_the_trace_form():
    for p, q in [(2, 2), (2, 4), (3, 3)]:
        sig = (p, q)
        gens = generators(p, q, "X")
        for a in gens:
            ea = LieElement.basis(a, sig)
            for b in gens:
                dual_b = LieElement.basis(b, sig).scale(dual_sign(b, p))
                expect = ONE if a == b else ZERO
                assert form_B(ea, dual_b) == expect


def test_m_flavor_form_is_minus_identity():
    sig = (2, 4)
    gens = generators(*sig, "M")
    for a in gens:
        for b in gens:
            val = form_B(LieElement.basis(a, sig), LieElement.basis(b, sig))
            assert val == (-ONE if a == b else ZERO)


def test_phi_is_a_bracket_isomorphism():
    # X_g = phi_g M_g with phi_g = 1, -1 or sqrt(-1) is a bracket isomorphism
    # exactly when c^M_{ab,g} = c^X_{ab,g} phi_a phi_b / phi_g; the mixed
    # letters of a, b, g add up to an even number, so the ratio is a sign
    for sig in [(2, 2), (1, 3), (3, 2)]:
        p = sig[0]

        def parts(g):
            return (-1 if g.i > p else 1), int(not same_block(g, p))

        xtab, mtab = _bracket_table(sig, "X"), _bracket_table(sig, "M")
        gens = generators(*sig, "X")
        for a in gens:
            for b in gens:
                (sa, ma), (sb, mb) = parts(a), parts(b)
                expect = {}
                for g, c in xtab[(a, b)].items():
                    sg, mg = parts(g)
                    assert (ma + mb - mg) % 2 == 0
                    ratio = sa * sb * sg * (-1) ** ((ma + mb - mg) // 2)
                    expect[Generator(g.i, g.j, "M")] = c * ratio
                key = (Generator(a.i, a.j, "M"), Generator(b.i, b.j, "M"))
                assert mtab[key] == expect


def test_mixed_generator_image_frozen():
    # pi(M_{1, p+1}) = -(x1 y1 + d_x1 d_y1), which is pi(X_{1, p+1}) / sqrt(-1)
    space = VariableSpace(2, 2)
    op = pi_generator(Generator(1, 3, "M"), space)
    expect = WeylOperator.term(space, (1, 0, 1, 0), (0, 0, 0, 0), -1) + (
        WeylOperator.term(space, (0, 0, 0, 0), (1, 0, 1, 0), -1)
    )
    assert op == expect
    with pytest.raises(ValueError):
        pi_generator(Generator(1, 3, "X"), space)


def test_same_block_image_frozen():
    # pi(M_{i,j}) = v_i d_j - v_j d_i in both blocks; the y-block sign flip of
    # pi(X_{p+1,p+2}) is its factor phi = -1
    space = VariableSpace(2, 2)
    op = pi_generator(Generator(1, 2, "M"), space)
    expect = WeylOperator.term(space, (1, 0, 0, 0), (0, 1, 0, 0), 1) + (
        WeylOperator.term(space, (0, 1, 0, 0), (1, 0, 0, 0), -1)
    )
    assert op == expect
    opy = pi_generator(Generator(3, 4, "M"), space)
    expecty = WeylOperator.term(space, (0, 0, 1, 0), (0, 0, 0, 1), 1) + (
        WeylOperator.term(space, (0, 0, 0, 1), (0, 0, 1, 0), -1)
    )
    assert opy == expecty


def test_homomorphism_small_signatures():
    for p, q in [(2, 2), (2, 3)]:
        sig = (p, q)
        space = VariableSpace(p, q)
        gens = generators(p, q, "M")
        for ia, a in enumerate(gens):
            for b in gens[ia + 1 :]:
                lhs = pi_generator(a, space).commutator(pi_generator(b, space))
                rhs = pi_lie(bracket(LieElement.basis(a, sig), LieElement.basis(b, sig)))
                assert lhs == rhs


def test_commutant_small_signature():
    space = VariableSpace(2, 3)
    triple = sl2_triple(space)
    for g in generators(2, 3, "M"):
        op = pi_generator(g, space)
        for z in triple:
            assert op.commutator(z).is_zero()


def test_commutant_triple_relations():
    for p, q in [(2, 2), (2, 4), (3, 3)]:
        space = VariableSpace(p, q)
        H, Xp, Xm = sl2_triple(space)
        assert H.commutator(Xp) == Xp.scale(2)
        assert H.commutator(Xm) == Xm.scale(-2)
        assert Xp.commutator(Xm) == H


words = st.lists(gen_strategy, min_size=0, max_size=4).map(tuple)


@given(words, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_pbw_normal_form_is_schedule_independent(word, seed):
    rng = random.Random(seed)
    work = [(word, ONE)]
    guard = 0
    while True:
        guard += 1
        assert guard < 10000
        choices = []
        for idx, (w, _) in enumerate(work):
            for pos in range(len(w) - 1):
                if w[pos] > w[pos + 1]:
                    choices.append((idx, pos))
        if not choices:
            break
        idx, pos = rng.choice(choices)
        w, c = work.pop(idx)
        ga, gb = w[pos], w[pos + 1]
        work.append((w[:pos] + (gb, ga) + w[pos + 2 :], c))
        table_entry = bracket(LieElement.basis(ga, SIG), LieElement.basis(gb, SIG))
        for g, sc in table_entry.coeffs.items():
            work.append((w[:pos] + (g,) + w[pos + 2 :], c * sc))
    collapsed = {}
    for w, c in work:
        acc = collapsed.get(w, ZERO) + c
        if acc:
            collapsed[w] = acc
        elif w in collapsed:
            del collapsed[w]
    u = EnvelopingElement(SIG, "X", {word: ONE})
    assert pbw_normal_form(u).coeffs == collapsed


def test_pbw_sorted_words_are_fixed():
    a, b = GENS[0], GENS[1]
    u = EnvelopingElement(SIG, "X", {(a, b): Fraction(2), (a, a, b): Fraction(-1, 3)})
    assert pbw_normal_form(u) == u


@given(
    st.lists(
        st.tuples(
            gen_strategy,
            gen_strategy,
            st.fractions(
                min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
            ),
        ),
        min_size=0,
        max_size=4,
    )
)
@settings(max_examples=30, deadline=None)
def test_symbol_inverts_multiplication_on_symmetric_tensors(entries):
    coeffs = {}
    for a, b, c in entries:
        for key in ((a, b), (b, a)):
            acc = coeffs.get(key, ZERO) + c
            if acc:
                coeffs[key] = acc
            elif key in coeffs:
                del coeffs[key]
    tensor = SymSquareTensor(SIG, "X", coeffs)
    assert degree2_symbol(gamma2(tensor)) == dict(tensor.coeffs)


def test_casimir_word_structure():
    sig = (2, 4)
    gens = generators(*sig, "X")
    full = casimir("g", sig)
    assert set(full.coeffs) == {(g, g) for g in gens}
    for g, word_coeff in ((g, full.coeffs[(g, g)]) for g in gens):
        assert word_coeff == dual_sign(g, 2)
    first = casimir("op", sig)
    assert set(first.coeffs) == {(g, g) for g in gens if g.j <= 2}
    second = casimir("oq", sig)
    assert set(second.coeffs) == {(g, g) for g in gens if g.i > 2}


def test_casimir_closed_forms_small():
    for p, q in [(2, 2), (2, 4)]:
        space = VariableSpace(p, q)
        for which in ("op", "oq", "g"):
            assert pi_casimir(space, which) == closed_operator(space, which)


def test_two_casimir_relation_small():
    space = VariableSpace(2, 4)
    n = 6
    shift = WeylOperator.identity(space).scale(Fraction(-n * n, 4) + n)
    assert pi_casimir(space, "g") == sl2_casimir_op(space) + shift


def test_pi_env_respects_products():
    sig = (2, 2)
    space = VariableSpace(2, 2)
    a, b = MGENS[0], MGENS[3]
    u = EnvelopingElement(sig, "M", {(a, b): Fraction(1, 2), (b,): ONE})
    expect = pi_generator(a, space).compose(pi_generator(b, space)).scale(
        Fraction(1, 2)
    ) + pi_generator(b, space)
    assert pi_env(u) == expect
    with pytest.raises(ValueError):
        pi_env(EnvelopingElement(sig, "X", {(GENS[0],): ONE}))


def _pi_env_reference(u):
    """pi_env word by word: compose each word, scale it, add it to the total."""
    space = VariableSpace(*u.sig)
    total = WeylOperator.zero(space)
    for word, c in u._terms.items():
        op = liealg.pi_generator(word[0], space) if word else WeylOperator.identity(space)
        for g in word[1:]:
            op = op.compose(liealg.pi_generator(g, space))
        total = total + op.scale(c)
    return total.scale(Fraction(1, u.den))


def _noncommuting_pair(sig):
    """The first generator pair (x, y), in generator order, with [x, y] != 0."""
    gens = generators(*sig, "M")
    return next((x, y) for x in gens for y in gens if _bracket_table(sig, "M")[(x, y)])


def _pi_env_cases(sig):
    """Words of length 0 to 3 over a denominator, a combination whose images
    cancel to zero, a reversed pair of non-commuting letters with unequal
    coefficients and a symmetric one, the transported Casimir words and
    every S4 tensor."""
    gens = generators(*sig, "M")
    rng = random.Random(sum(sig))
    words = [()] + [tuple(rng.choice(gens) for _ in range(k)) for k in (1, 1, 2, 2, 3, 3)]
    mixed = {w: Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])) for w in words}
    yield "mixed", EnvelopingElement(sig, "M", mixed)
    x, y = _noncommuting_pair(sig)
    commutator = {(x, y): 1, (y, x): -1}
    commutator.update({(g,): -c for g, c in _bracket_table(sig, "M")[(x, y)].items()})
    yield "cancelling", EnvelopingElement(sig, "M", commutator)
    yield "reversed", EnvelopingElement(sig, "M", {(x, y): 3, (y, x): Fraction(1, 2)})
    yield "symmetric", SymSquareTensor(sig, "M", {(x, y): Fraction(-2, 3), (y, x): Fraction(-2, 3)})
    for which in ("op", "oq", "g"):
        yield which, transport(casimir(which, sig))
    for idx in combinations(range(1, sum(sig) + 1), 4):
        yield idx, build_S4(sig, *idx)


@pytest.mark.parametrize("sig", [(2, 2), (3, 3), (1, 5), (4, 4)])
def test_pi_env_matches_word_by_word_reference(sig):
    seen = set()
    for label, u in _pi_env_cases(sig):
        got = pi_env(u)
        assert got == _pi_env_reference(u), label
        if label == "cancelling" or isinstance(label, tuple):
            assert got.is_zero(), label
        seen.add(label if isinstance(label, str) else "S4")
    assert seen == {"mixed", "cancelling", "reversed", "symmetric", "op", "oq", "g", "S4"}


def test_pi_env_keeps_generator_denominators(monkeypatch):
    # every pi(generator) has denominator 1; pi_env must not rely on it
    sig = (2, 2)
    real = liealg.pi_generator
    halved = {g for g in generators(*sig, "M") if g.j - g.i == 1}

    def scaled(g, space):
        return real(g, space).scale(Fraction(1, 2 if g in halved else 3))

    monkeypatch.setattr(liealg, "pi_generator", scaled)
    for label, u in _pi_env_cases(sig):
        assert pi_env(u) == _pi_env_reference(u), label
    assert scaled(MGENS[0], VariableSpace(*sig)).den == 2
    # the letters of the pair cases carry denominators 2 and 3
    x, y = _noncommuting_pair(sig)
    assert (x in halved, y in halved) == (True, False)


@pytest.mark.parametrize("sign", [0, -1])
def test_a_wrong_pair_correction_fails_the_word_by_word_reference(monkeypatch, sign):
    # pi_env takes a reversed pair as (c + c') AB - c' [A, B]; a _commute
    # that adds nothing (sign 0), or a correction of +c' [A, B] (sign -1),
    # must change the image of every reversed pair of non-commuting letters
    real = liealg._commute

    def wrong(sp, a_rows, b_rows, acc, s):
        real(sp, a_rows, b_rows, acc, sign * s)

    monkeypatch.setattr(liealg, "_commute", wrong)
    for sig in [(2, 2), (1, 5)]:
        cases = dict((label, u) for label, u in _pi_env_cases(sig) if isinstance(label, str))
        for label in ("cancelling", "reversed", "symmetric"):
            assert pi_env(cases[label]) != _pi_env_reference(cases[label]), (sig, label)


@pytest.mark.parametrize("sig", [(2, 2), (3, 3), (1, 5), (4, 4)])
def test_pi_env_matches_word_by_word_reference_on_the_symsq_tensors(sig):
    # the S2 family, Q and the transported Xi: reversed pairs of letters
    # sharing an index (which keep their _commute pass) beside diagonal words
    n = sum(sig)
    tensors = [build_S2(sig, i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    tensors += [build_Q(sig, "M"), transport(build_Xi(sig))]
    for t in tensors:
        assert pi_env(t) == _pi_env_reference(t), t


def _count_commutes(monkeypatch):
    calls = []
    real = liealg._commute

    def counting(*args):
        calls.append(args[-1])
        real(*args)

    monkeypatch.setattr(liealg, "_commute", counting)
    return calls


def test_letters_on_disjoint_variables_skip_the_commute_pass(monkeypatch):
    calls = _count_commutes(monkeypatch)
    # every reversed pair of an S4 tensor has letters sharing no index
    assert s4_vanishing.__wrapped__((4, 4)) == (70, True)
    assert calls == []
    # S2_12 pairs M_1k with M_k2, which share the index k
    pi_env(build_S2((4, 4), 1, 2))
    assert len(calls) == 6


def test_an_antisymmetric_pair_keeps_its_commute_pass(monkeypatch):
    # c + c' = 0 runs no _leibniz pass, so the _commute pass stays, also for
    # letters on disjoint variables, where it adds nothing
    calls = _count_commutes(monkeypatch)
    sig = (2, 2)
    x, y = Generator(1, 2, "M"), Generator(3, 4, "M")
    u = EnvelopingElement(sig, "M", {(x, y): 2, (y, x): -2})
    assert pi_env(u).is_zero()
    assert len(calls) == 1


def test_constructors_refuse_unknown_flavors_and_bad_keys():
    sig = (2, 2)
    m12, m23 = Generator(1, 2, "M"), Generator(2, 3, "M")
    keyed = ((LieElement, m12), (EnvelopingElement, (m12,)), (SymSquareTensor, (m12, m12)))
    for cls, key in keyed:
        with pytest.raises(ValueError, match="flavor"):
            cls(sig, "Q", {key: 1})
    bad_letters = (
        Generator(2, 1, "M"),  # not canonical
        Generator(2, 2, "M"),
        Generator(0, 2, "M"),  # outside 1..n
        Generator(3, 5, "M"),
        Generator(2, 3, "X"),  # the other flavor
        (2, 3, "M"),  # not a Generator
    )
    for bad in bad_letters:
        with pytest.raises(ValueError, match="canonical"):
            LieElement(sig, "M", {bad: 1})
        with pytest.raises(ValueError, match="canonical"):
            EnvelopingElement(sig, "M", {(m12, bad): 1})
        with pytest.raises(ValueError, match="canonical"):
            SymSquareTensor(sig, "M", {(bad, bad): 1})
    # [M_12, M_23] = M_13; with M_23 under an X-flavor key it used to read 0
    m13 = LieElement(sig, "M", {Generator(1, 3, "M"): 1})
    assert bracket(LieElement.basis(m12, sig), LieElement.basis(m23, sig)) == m13


def test_generator_lists_refuse_unknown_flavors_and_cache_nothing_for_them():
    message = "flavor must be 'X' or 'M', not 'Y'"
    memos = (liealg._generator_tuple, liealg.canonical, liealg._shared_table)
    before = [memo.cache_info().currsize for memo in memos]
    with pytest.raises(ValueError, match=message):
        generators(2, 1, "Y")
    with pytest.raises(ValueError, match=message):
        liealg.canonical(1, 2, "Y")
    with pytest.raises(ValueError, match=message):
        _bracket_table((2, 2), "Y")
    assert [memo.cache_info().currsize for memo in memos] == before
    with pytest.raises(ValueError, match="i != j"):
        liealg.canonical(2, 2, "M")


def test_generator_lists_are_fresh_over_shared_generators():
    first = generators(3, 2, "M")
    want = list(first)
    first.reverse()
    first.append(Generator(1, 2, "X"))
    first[0] = None
    again = generators(3, 2, "M")
    assert again == want and again is not first
    assert generators(4, 1, "M") == want  # one list per p + q
    # every list hands out the objects canonical returns, at every n
    for g in again:
        assert liealg.canonical(g.i, g.j, "M") == (g, 1)
        assert liealg.canonical(g.i, g.j, "M")[0] is g
        assert liealg.canonical(g.j, g.i, "M") == (g, -1)
    assert generators(9, 0, "M")[0] is again[0]
    assert generators(3, 2, "X") == [Generator(g.i, g.j, "X") for g in want]


def test_word_maps_refuse_lie_elements():
    with pytest.raises(TypeError, match="not words"):
        transport(LieElement.basis(GENS[0], SIG))
    with pytest.raises(TypeError, match="not words"):
        pi_env(LieElement.basis(MGENS[0], SIG))


def _mixed_count(word):
    return sum(not same_block(g, SIG[0]) for g in word)


@given(words.filter(lambda w: _mixed_count(w) % 2 == 0))
@settings(max_examples=40, deadline=None)
def test_transport_commutes_with_pbw_normal_form(word):
    u = EnvelopingElement(SIG, "X", {word: ONE})
    m = transport(u)
    assert m.flavor == "M"
    assert pbw_normal_form(m) == transport(pbw_normal_form(u))
    assert transport(m) == u


@given(words.filter(lambda w: _mixed_count(w) % 2 == 1))
@settings(max_examples=20, deadline=None)
def test_transport_refuses_odd_mixed_words(word):
    with pytest.raises(ValueError):
        transport(EnvelopingElement(SIG, "X", {word: ONE}))
