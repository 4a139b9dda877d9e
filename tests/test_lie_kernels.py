"""Integer-numerator Lie-side kernels against reference kernels over ``Fraction``.

Lie elements, enveloping elements and symmetric-square tensors store int
numerators over one shared denominator, and the structure constants are the
ints +1 and -1.  The reference kernels below are the earlier implementations,
which keep one ``Fraction`` per key and read the structure constants as
``Fraction``s off dense matrix commutators; each test runs a kernel and its
reference on the same input and compares the results as rational
coefficients, in key order where ``pbw_normal_form`` fixes one.  Every result
must also be in canonical form.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gkverify import liealg, weyl
from gkverify.checks import execute_jobs, plan_jobs, selected_checks
from gkverify.liealg import (
    EnvelopingElement,
    Generator,
    LieElement,
    _bracket_table,
    bracket,
    degree2_symbol,
    epsilon,
    form_B,
    generators,
    jacobiator,
    pbw_normal_form,
    pi_bracket,
    pi_generator,
    straighten,
    transport,
    transport_sign,
)
from gkverify.poly import VariableSpace
from gkverify.symsq import SymSquareTensor, adjoint_action
from helpers import pairing, pi_lie

SIGS = [(2, 2), (1, 3), (3, 2)]
FLAVORS = ["X", "M"]
coeffs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)
scalars = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=9)


# -- reference kernels: one Fraction per key -----------------------------------------


def _acc(out, k, c):
    a = out.get(k, 0) + c
    if a:
        out[k] = a
    else:
        out.pop(k, None)


def _matrix(g, p, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    if g.flavor == "M":
        m[g.i - 1][g.j - 1], m[g.j - 1][g.i - 1] = Fraction(1), Fraction(-1)
    else:
        m[g.i - 1][g.j - 1] = Fraction(epsilon(g.j, p))
        m[g.j - 1][g.i - 1] = Fraction(-epsilon(g.i, p))
    return m


@lru_cache(maxsize=None)
def ref_table(sig, flavor):
    """Every bracket row from dense Fraction commutators, in generator order."""
    p, n = sig[0], sig[0] + sig[1]
    gens = generators(*sig, flavor)
    mats = {g: _matrix(g, p, n) for g in gens}
    table = {}
    for a in gens:
        for b in gens:
            ma, mb = mats[a], mats[b]
            row = {}
            for g in gens:
                i, j = g.i - 1, g.j - 1
                z = sum(ma[i][k] * mb[k][j] - mb[i][k] * ma[k][j] for k in range(n))
                if z:
                    row[g] = z / mats[g][i][j]
            table[(a, b)] = row
    return table


def ref_add(a, b):
    out = dict(a)
    for k, c in b.items():
        _acc(out, k, c)
    return out


def ref_scale(a, c):
    return {k: v * c for k, v in a.items() if v * c}


def ref_bracket(a, b, table):
    out = {}
    for ga, ca in a.items():
        for gb, cb in b.items():
            for g, sc in table[(ga, gb)].items():
                _acc(out, g, ca * cb * sc)
    return out


def ref_mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _acc(out, wa + wb, ca * cb)
    return out


def ref_straighten(u, table, last=False):
    out = {}
    stack = list(u.items())
    while stack:
        word, c = stack.pop()
        positions = range(len(word) - 2, -1, -1) if last else range(len(word) - 1)
        pos = next((t for t in positions if word[t] > word[t + 1]), -1)
        if pos < 0:
            _acc(out, word, c)
            continue
        ga, gb = word[pos], word[pos + 1]
        stack.append((word[:pos] + (gb, ga) + word[pos + 2 :], c))
        for g, sc in table[(ga, gb)].items():
            stack.append((word[:pos] + (g,) + word[pos + 2 :], c * sc))
    return out


def ref_degree2_symbol(nf):
    out = {}
    for word, c in nf.items():
        if len(word) == 2:
            a, b = word
            if a == b:
                _acc(out, (a, a), c)
            else:
                _acc(out, (a, b), c / 2)
                _acc(out, (b, a), c / 2)
    return out


def ref_transport(u, p, flavor):
    return {
        tuple(Generator(g.i, g.j, flavor) for g in w): c * transport_sign(w, p)
        for w, c in u.items()
    }


def ref_form_B(a, b, p):
    total = Fraction(0)
    for g, ca in a.items():
        if g in b:
            m = _matrix(g, p, g.j)
            total += ca * b[g] * m[g.i - 1][g.j - 1] * m[g.j - 1][g.i - 1]
    return total


def ref_pairing(s, t):
    return sum((v * t[k] for k, v in s.items() if k in t), Fraction(0))


def ref_adjoint(x, t, table):
    out = {}
    for (a, b), c in t.items():
        for gx, cx in x.items():
            for g1, s in table[(gx, a)].items():
                _acc(out, (g1, b), cx * c * s)
            for g2, s in table[(gx, b)].items():
                _acc(out, (a, g2), cx * c * s)
    return out


# -- inputs ---------------------------------------------------------------------------


def _context(draw):
    return draw(st.sampled_from(SIGS)), draw(st.sampled_from(FLAVORS))


def _entries(draw, keys, max_size=4):
    return draw(st.lists(st.tuples(st.sampled_from(keys), coeffs), max_size=max_size))


def _summed(entries):
    out = {}
    for k, c in entries:
        _acc(out, k, c)
    return out


@st.composite
def lie_pairs(draw):
    sig, flavor = _context(draw)
    gens = generators(*sig, flavor)
    return sig, flavor, _summed(_entries(draw, gens)), _summed(_entries(draw, gens))


@st.composite
def word_pairs(draw):
    sig, flavor = _context(draw)
    gens = generators(*sig, flavor)
    words = st.lists(st.sampled_from(gens), max_size=3).map(tuple)
    a = _summed(draw(st.lists(st.tuples(words, coeffs), max_size=3)))
    b = _summed(draw(st.lists(st.tuples(words, coeffs), max_size=3)))
    return sig, flavor, a, b


@st.composite
def tensor_pairs(draw):
    sig, flavor = _context(draw)
    gens = generators(*sig, flavor)
    out = []
    for _ in range(2):
        t = {}
        for a, b, c in draw(
            st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens), coeffs), max_size=4)
        ):
            _acc(t, (a, b), c)
            if a != b:
                _acc(t, (b, a), c)
        out.append(t)
    return sig, flavor, out[0], out[1], _summed(_entries(draw, gens))


# -- comparison -----------------------------------------------------------------------


def assert_canonical(f):
    assert type(f.den) is int and f.den > 0
    assert all(type(c) is int and c for c in f._terms.values())
    if f._terms:
        assert gcd(f.den, *f._terms.values()) == 1
    else:
        assert f.den == 1


def assert_matches(f, ref, ordered=False):
    assert_canonical(f)
    if ordered:
        assert list(f.coeffs.items()) == list(ref.items())
    else:
        assert f.coeffs == ref


@pytest.mark.parametrize("sig", SIGS + [(4, 0), (2, 5)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_bracket_table_holds_ints_in_generator_order(sig, flavor):
    table, ref = _bracket_table(sig, flavor), ref_table(sig, flavor)
    for (a, b), row in ref.items():
        got = table[(a, b)]
        assert all(type(c) is int and c in (1, -1) for c in got.values())
        assert list(got.items()) == list(row.items())
    assert set(table) == {k for k, row in ref.items() if row}


@given(lie_pairs(), scalars)
@settings(max_examples=60, deadline=None)
def test_lie_kernels_match_reference(case, c):
    sig, flavor, ra, rb = case
    a, b = LieElement(sig, flavor, ra), LieElement(sig, flavor, rb)
    table = ref_table(sig, flavor)
    assert_matches(a, ra)
    assert_matches(bracket(a, b), ref_bracket(ra, rb, table))
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_scale(rb, -1)))
    assert_matches(-a, ref_scale(ra, -1))
    assert_matches(a.scale(c), ref_scale(ra, c))
    assert_matches(a.scale(3), ref_scale(ra, 3))
    assert_matches(a - a, {})
    form = form_B(a, b)
    assert type(form) is Fraction and form == ref_form_B(ra, rb, sig[0])


@given(word_pairs(), scalars)
@settings(max_examples=60, deadline=None)
def test_enveloping_kernels_match_reference(case, c):
    sig, flavor, ra, rb = case
    a, b = EnvelopingElement(sig, flavor, ra), EnvelopingElement(sig, flavor, rb)
    table = ref_table(sig, flavor)
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, ref_scale(rb, -1)))
    assert_matches(a.scale(c), ref_scale(ra, c))
    # straightening pushes rows in table order and pops from the end, so the
    # normal form's key order is fixed as well as its coefficients
    prod = a * b
    rprod = prod.coeffs
    nf, rnf = pbw_normal_form(prod), ref_straighten(rprod, table)
    assert_matches(nf, rnf, ordered=True)
    last = ref_straighten(rprod, table, last=True)
    assert_matches(straighten(prod, last=True), last, ordered=True)
    symbol = degree2_symbol(prod)
    assert all(type(v) is Fraction for v in symbol.values())
    assert symbol == ref_degree2_symbol(rnf)


@st.composite
def long_words(draw):
    sig, flavor = _context(draw)
    gens = generators(*sig, flavor)
    word = tuple(draw(st.lists(st.sampled_from(gens), min_size=2, max_size=5)))
    return sig, flavor, word, draw(coeffs.filter(bool))


# a word whose straightening cancels a sorted word and then meets it again,
# which moves that word to the end of the reference's key order
_X = [Generator(i, j, "X") for i, j in ((3, 4), (2, 3), (1, 4), (1, 3))]


@given(long_words())
@example(((1, 3), "X", tuple(_X), Fraction(1)))
@settings(max_examples=80, deadline=None)
def test_straightening_keeps_the_reference_key_order(case):
    sig, flavor, word, c = case
    u = EnvelopingElement(sig, flavor, {word: c})
    table = ref_table(sig, flavor)
    for last in (False, True):
        assert_matches(straighten(u, last), ref_straighten({word: c}, table, last), ordered=True)


@given(word_pairs())
@settings(max_examples=60, deadline=None)
def test_transport_matches_reference(case):
    sig, flavor, ra, _ = case
    p = sig[0]
    if any(sum(g.i <= p < g.j for g in w) % 2 for w in ra):
        return  # a word with an odd number of mixed letters has no real transport
    other = "M" if flavor == "X" else "X"
    u = EnvelopingElement(sig, flavor, ra)
    m = transport(u)
    assert m.ctx == (sig, other)
    assert_matches(m, ref_transport(ra, p, other))
    assert transport(m) == u


@given(tensor_pairs())
@settings(max_examples=60, deadline=None)
def test_tensor_kernels_match_reference(case):
    sig, flavor, rs, rt, rx = case
    s, t = SymSquareTensor(sig, flavor, rs), SymSquareTensor(sig, flavor, rt)
    x = LieElement(sig, flavor, rx)
    assert_matches(s + t, ref_add(rs, rt))
    assert_matches(s - t, ref_add(rs, ref_scale(rt, -1)))
    assert_matches(adjoint_action(x, s), ref_adjoint(rx, rs, ref_table(sig, flavor)))
    value = pairing(s, t)
    assert type(value) is Fraction and value == ref_pairing(rs, rt)


# -- table reads against the LieElement path, at every signature with p + q <= 8 ----

ALL_SIGS = [(p, n - p) for n in range(2, 9) for p in range(1, n)]
SIG_IDS = [f"{p}-{q}" for p, q in ALL_SIGS]


@pytest.mark.parametrize("sig", ALL_SIGS, ids=SIG_IDS)
def test_table_read_bracket_images_match_the_lie_element_path(sig):
    # pi([a, b]) from one table row against pi of the formed bracket, for
    # every ordered pair of M-flavor generators (pi is defined on M only)
    space = VariableSpace(*sig)
    gens = generators(*sig, "M")
    basis = {g: LieElement.basis(g, sig) for g in gens}
    for a in gens:
        for b in gens:
            assert pi_bracket(a, b, space) == pi_lie(bracket(basis[a], basis[b]))


@pytest.mark.parametrize("sig", ALL_SIGS, ids=SIG_IDS)
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("flip", [False, True], ids=["table", "flipped"])
def test_table_jacobiators_match_the_lie_element_path(sig, flavor, flip, monkeypatch):
    # on the table, and on a copy with its first constant's sign flipped
    # (read by both paths through liealg), where some Jacobiators are not zero
    gens = generators(*sig, flavor)
    real = liealg._bracket_table
    table = real(sig, flavor)
    if flip:
        if not table:
            return  # one generator: nothing to flip
        table = liealg._StructureConstants(table)
        key = next(iter(table))
        table[key] = {g: -c for g, c in table[key].items()}
        monkeypatch.setattr(
            liealg,
            "_bracket_table",
            lambda s, f: table if (s, f) == (sig, flavor) else real(s, f),
        )
    basis = {g: LieElement.basis(g, sig) for g in gens}

    def formed(a, b, c):
        return bracket(basis[a], bracket(basis[b], basis[c]))

    rng = random.Random(100 * sig[0] + sig[1])
    triples = [tuple(rng.choice(gens) for _ in range(3)) for _ in range(100)]
    if flip:
        triples += [(a, *key) for a in gens]
    nonzero = 0
    for a, b, c in triples:
        jac = formed(a, b, c) + formed(b, c, a) + formed(c, a, b)
        got = jacobiator(sig, a, b, c)
        assert jac.den == 1 and got == jac._terms
        nonzero += bool(got)
    assert bool(nonzero) == flip


# -- shared bracket tables -------------------------------------------------------------


@pytest.mark.parametrize("flavor", FLAVORS)
def test_signatures_share_a_table_exactly_when_its_constants_agree(flavor):
    # the M table depends on n alone, the X table on p and n
    for s1 in ALL_SIGS:
        for s2 in ALL_SIGS:
            same = sum(s1) == sum(s2) and (flavor == "M" or s1[0] == s2[0])
            assert (_bracket_table(s1, flavor) is _bracket_table(s2, flavor)) == same


@pytest.mark.parametrize("sig", [(1, 1), (2, 2), (4, 4), (1, 7), (5, 3)])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_one_read_only_row_per_generator_and_sign(sig, flavor):
    table = _bracket_table(sig, flavor)
    by_value = {}
    for row in table.values():
        ((g, c),) = row.items()
        by_value.setdefault((g, c), set()).add(id(row))
    assert all(len(ids) == 1 for ids in by_value.values())
    # every generator is the bracket of some pair once n >= 3, with both signs
    n = sum(sig)
    assert len(by_value) == (2 * len(generators(*sig, flavor)) if n >= 3 else 0)
    for row in table.values():
        with pytest.raises(TypeError):
            row[next(iter(row))] = 0
    with pytest.raises(TypeError):
        table[("no", "pair")][generators(*sig, flavor)[0]] = 1


@pytest.mark.parametrize("sig", [(2, 2), (1, 3), (3, 2)])
def test_bracket_images_are_cached_and_match_the_negation(sig):
    space = VariableSpace(*sig)
    gens = generators(*sig, "M")
    for a in gens:
        for b in gens:
            got = pi_bracket(a, b, space)
            assert pi_bracket(a, b, space) is got or got.is_zero()
            row = _bracket_table(sig, "M")[(a, b)]
            for g, c in row.items():
                image = pi_generator(g, space)
                assert got is (image if c == 1 else liealg._pi_negated(g, space))
                assert got == image.scale(c)


def _lie_weyl_verdicts(tuples):
    """{(check, params): (status, instances, detail)} of the lie and weyl suites."""
    jobs = plan_jobs(selected_checks(("lie", "weyl")), tuples, 3, 3)
    return {
        (r.name, tuple(sorted(r.params.items()))): (r.status, r.instances, r.detail)
        for r in execute_jobs(jobs)
    }


def test_shared_tables_change_no_verdict_of_a_sweep():
    # every signature with p + q <= 8 in one check-major run, as the
    # benchmark plans it, sharing tables and images across signatures,
    # against each signature run alone after clearing every liealg and weyl
    # cache
    tuples = [(p, q, None) for p in range(1, 8) for q in range(1, 9 - p)]
    assert len(tuples) == 28
    shared = _lie_weyl_verdicts(tuples)
    cold = {}
    for t in tuples:
        for mod in (liealg, weyl):
            for fn in vars(mod).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()
        cold.update(_lie_weyl_verdicts([t]))
    assert shared == cold
    assert all(status == "pass" for status, _, _ in shared.values())
