"""Registered checks called directly, outside the runner."""

import pytest

import gkverify.gkmodule as gkmodule
import gkverify.symsq as symsq
from gkverify import checks, liealg, poly
from gkverify.checks import REGISTRY, CheckDef, CheckRun, execute_jobs, plan_jobs, selected_checks
from gkverify.gkmodule import (
    DegenerateSampleError,
    KType,
    ModuleParams,
    garfinkle_obstruction,
    ktype_box,
    ktype_enumeration,
)
from gkverify.symsq import s4_vanishing, theorem_ingredients, xi_closed_form
from gkverify.weyl import WeylOperator
from helpers import two_pass_commutator

VECTOR_CHECKS = [
    "casimir.op_eigenvalue",
    "casimir.oq_eigenvalue",
    "casimir.g_eigenvalue",
    "casimir.xi_eigenvalue",
    "module.membership",
    "module.radial_uniformity",
    "module.apply_linearity",
    "paction.four_term",
]


# the checks that read the first K-type of their plan, and the error they
# raise when the plan holds none
FIRST_KTYPE_READERS = {
    "module.radial_uniformity": "StopIteration",
    "module.apply_linearity": "IndexError",
}


@pytest.mark.parametrize("name", VECTOR_CHECKS)
def test_check_that_sees_no_vector_fails(monkeypatch, name):
    # the plans count from the window, so no valid tuple leaves one empty;
    # on an enumeration and a window emptied by hand the runner gives no
    # check a verdict: the body counts no instance, or finds no K-type to
    # read and raises
    import gkverify.checks as checks

    for module in (checks, gkmodule):
        monkeypatch.setattr(module, "ktype_enumeration", lambda *args: [])
    monkeypatch.setattr(gkmodule, "_window", lambda params: iter(()))
    status, instances, detail = _verdict(name, 4, 6, 1)
    if name in FIRST_KTYPE_READERS:
        assert (status, instances) == ("error", None), detail
        assert detail["error"].startswith(FIRST_KTYPE_READERS[name]), detail
    else:
        assert (status, instances, detail) == ("error", 0, {"error": "no instances examined"})


def _valid_tuples(n_max):
    """Every (p, q, m) that ModuleParams accepts with p + q <= n_max."""
    return [
        (p, n - p, m)
        for n in range(6, n_max + 1, 2)
        for p in range(2, n - 1)
        for m in range(n // 2 - 2)
    ]


def test_every_module_plan_examines_an_instance_in_every_box():
    # every valid tuple with p + q <= 12, both signs, every k_max, l_max <=
    # 3: the enumeration is never empty, and each pqm check of the module
    # and paction suites examines at least one instance and passes
    tuples = _valid_tuples(12)
    assert len(tuples) == 70
    names = [
        name for name, cd in REGISTRY.items()
        if cd.scope == "pqm" and name.split(".")[0] in ("module", "paction")
    ]
    assert len(names) == 7
    # the box each check reads: paction.four_term caps it at 2, and
    # paction.degenerate_guard reads its own; each distinct one runs once
    read = {"paction.four_term": lambda k, l: (min(k, 2), min(l, 2)),
            "paction.degenerate_guard": lambda k, l: ()}
    ran = set()
    for p, q, m in tuples:
        for k_max in range(4):
            for l_max in range(4):
                for sign in (1, -1):
                    assert ktype_enumeration(ModuleParams(p, q, m, sign), k_max, l_max)
                run = CheckRun(p, q, m, k_max, l_max)
                for name in names:
                    box = read.get(name, lambda k, l: (k, l))(k_max, l_max)
                    if (name, p, q, m, box) in ran:
                        continue
                    ran.add((name, p, q, m, box))
                    ok, instances, detail = REGISTRY[name].fn(run)
                    assert ok and instances >= 1, (p, q, m, k_max, l_max, name, detail)


@pytest.mark.parametrize(
    "p,q,m,kt,instances",
    [(3, 3, 0, (1, 1), 16), (4, 4, 0, (1, 1), 16), (4, 6, 1, (1, 1), 16)],
)
def test_radial_uniformity_moves_an_empty_box_to_the_window(monkeypatch, p, q, m, kt, instances):
    # at k_max = l_max = 0 the box holds (0, 0) alone, which has no harmonic
    # product of positive degree; the check reads the first K-type of the
    # window that has one, for each sign, and builds no harmonic
    import gkverify.checks as checks

    for module in (checks, gkmodule):
        monkeypatch.setattr(module, "harmonic_basis", lambda *a: pytest.fail("built a harmonic"))
    for sign in (1, -1):
        params = ModuleParams(p, q, m, sign)
        assert ktype_enumeration(params, 0, 0) == [KType(0, 0, p, q)]
        first = next(k for k in gkmodule._window(params) if k.k + k.l >= 1)
        assert (first.k, first.l) == kt
    (r,) = execute_jobs(plan_jobs([REGISTRY["module.radial_uniformity"]], [(p, q, m)], 0, 0))
    assert (r.status, r.instances, r.detail) == ("pass", instances, {})


def _verdict(name, p, q, m):
    """(status, instances, detail) of one check run by execute_jobs."""
    (r,) = execute_jobs(plan_jobs([REGISTRY[name]], [(p, q, m)], 3, 3))
    return r.status, r.instances, r.detail


def test_a_check_that_examines_nothing_is_an_error(monkeypatch):
    # one rule in the runner, whatever the body's own verdict; a body that
    # raises reports no count at all
    def body(ok):
        return lambda run: (ok, 0, {"seen": "nothing"})

    def boom(run):
        raise RuntimeError("boom")

    for name, fn in (("lie.vacuous_pass", body(True)), ("lie.vacuous_fail", body(False)),
                     ("lie.raises", boom)):
        monkeypatch.setitem(REGISTRY, name, CheckDef(name, "lie", "pq", "test only", fn))
    empty = ("error", 0, {"error": "no instances examined"})
    assert _verdict("lie.vacuous_pass", 2, 2, None) == empty
    assert _verdict("lie.vacuous_fail", 2, 2, None) == empty
    (r,) = execute_jobs(plan_jobs([REGISTRY["lie.raises"]], [(2, 2, None)], 3, 3))
    assert (r.status, r.to_dict()["instances"], r.detail) == (
        "error", None, {"error": "RuntimeError: boom"}
    )


# The k, l <= 2 box holds no K-type at (2, 10, 1) and (10, 2, 1), nor the
# k, l <= 3 box at (2, 14, 1), where the window needs k - l = 5 or 7; at
# (2, 8, 1) the k, l <= 2 box holds one K-type, whose samples share the Xi
# eigenvalue -16/5.
DEGENERATE_TUPLES = [(2, 10, 1), (10, 2, 1), (2, 8, 1)]
LATE_WINDOWS = DEGENERATE_TUPLES + [(2, 14, 1)]


def test_a_window_past_the_box_gives_verdicts():
    # every check examines window K-types and passes, and the obstruction
    # is infeasible for both signs; at (2, 14, 1) every plan counts from the
    # corner (5, 0), the K-type of least k + l
    results = execute_jobs(plan_jobs(selected_checks(["all"]), LATE_WINDOWS, 3, 3))
    assert all(r.status == "pass" and r.instances for r in results), [
        r.to_dict() for r in results if r.status != "pass" or not r.instances
    ]
    at = {(r.name, r.params.get("q")): r for r in results if r.params.get("p") == 2}
    for q in (8, 10, 14):
        per_sign = at["garfinkle.obstruction", q].detail["per_sign"]
        assert [rep["exists"] for rep in per_sign.values()] == [False, False]
    window = at["module.parameter_window", 14]
    assert (window.instances, window.detail) == (32, {"allowed": 12})
    for sign in (1, -1):
        params = ModuleParams(2, 14, 1, sign)
        assert ktype_box(params, 3, 3) == (range(5, 9), range(4))
        assert ktype_enumeration(params, 3, 3)[0] == KType(5, 0, 2, 14)


def _one_ktype_plan(params):
    """A hand-built sample set that cannot decide the system at m >= 1:
    every harmonic product at the first K-type of the window, all with one
    Xi eigenvalue."""
    (kt,) = ktype_enumeration(params, 0, 0)
    return list(gkmodule._product_harmonics(params, kt))


def _use_plan(monkeypatch, plan):
    """Make `plan` the default sample plan, with the solver's memo cleared."""
    for module in (gkmodule, symsq):
        monkeypatch.setattr(module, "default_samples", plan)
    garfinkle_obstruction.cache_clear()


@pytest.mark.parametrize("p,q,m", DEGENERATE_TUPLES)
def test_degenerate_samples_are_an_error(monkeypatch, p, q, m):
    # a plan with one Xi eigenvalue, or with fewer than two samples, is
    # refused by the solver, and the runner reports both garfinkle checks
    # as errors
    plans = (_one_ktype_plan, lambda params: _one_ktype_plan(params)[:1], lambda params: [])
    for plan in plans:
        _use_plan(monkeypatch, plan)
        for sign in (1, -1):
            with pytest.raises(DegenerateSampleError):
                garfinkle_obstruction(ModuleParams(p, q, m, sign))
    defs = [REGISTRY["garfinkle.obstruction"], REGISTRY["garfinkle.theorem"]]
    results = execute_jobs(plan_jobs(defs, [(p, q, m)], 3, 3))
    assert [r.name for r in results] == ["garfinkle.obstruction", "garfinkle.theorem"]
    for r in results:
        assert r.status == "error", r.to_dict()
        assert r.detail["error"].startswith("DegenerateSampleError: "), r.detail
    garfinkle_obstruction.cache_clear()


@pytest.mark.parametrize("p,q,m", DEGENERATE_TUPLES)
def test_degenerate_samples_raise_on_every_call(monkeypatch, p, q, m):
    # a raised error is not memoized: each call solves again and raises again
    params = ModuleParams(p, q, m, 1)
    _use_plan(monkeypatch, _one_ktype_plan)
    for calls in (1, 2, 3):
        with pytest.raises(DegenerateSampleError):
            garfinkle_obstruction(params)
        info = garfinkle_obstruction.cache_info()
        assert (info.misses, info.currsize) == (calls, 0)


def test_solver_images_only_the_samples_it_reads(monkeypatch):
    # at (4, 6, 1) each sample read costs one apply per block generator (6 +
    # 15 = 21), all on h1 h2, in sample order, and no sample's harmonics
    # are tested as a typical element's; a degenerate sample set is refused
    # from its K-types, before any image
    from gkverify.liealg import generators, pi_generator, same_block

    calls, built = [], []
    apply = WeylOperator.apply

    def spy(op, f):
        calls.append((op, f))
        return apply(op, f)

    monkeypatch.setattr(WeylOperator, "apply", spy)
    monkeypatch.setattr(gkmodule, "_require_block_harmonic", lambda *a: built.append(a))
    space = ModuleParams(4, 6, 1).space
    block = [pi_generator(g, space) for g in generators(4, 6, "M") if same_block(g, 4)]
    assert len(block) == 21
    garfinkle_obstruction.cache_clear()
    for sign in (1, -1):
        params = ModuleParams(4, 6, 1, sign)
        calls.clear()
        res = garfinkle_obstruction(params)
        assert not res.exists
        n_read = int(res.certificate.split(" of sample ")[1].split()[0]) + 1
        assert 1 <= n_read < res.n_samples, sign
        samples = list(gkmodule.default_samples(params))[:n_read]
        assert len(calls) == 21 * n_read, sign
        for s, (_, h1, h2) in enumerate(samples):
            group = calls[21 * s: 21 * (s + 1)]
            assert [op for op, _ in group] == block
            assert all(f == h1.mul(h2) for _, f in group)
    assert built == []
    # at m = 0 every Xi eigenvalue is 0: the zero witness needs no image
    for sign in (1, -1):
        calls.clear()
        res = garfinkle_obstruction(ModuleParams(4, 4, 0, sign))
        assert (res.exists, res.n_rows, res.witness[1], calls) == (True, 0, 0, [])
        assert not any(c for _, c in res.witness[0])
    _use_plan(monkeypatch, _one_ktype_plan)
    for p, q, m in DEGENERATE_TUPLES:
        for sign in (1, -1):
            calls.clear()
            with pytest.raises(DegenerateSampleError):
                garfinkle_obstruction(ModuleParams(p, q, m, sign))
            assert calls == [], (p, q, m, sign)
    garfinkle_obstruction.cache_clear()


@pytest.mark.parametrize("off", [1, -1])
def test_a_wrong_casimir_scalar_fails_the_theorem(monkeypatch, off):
    # the Casimir step can fail: with the full Casimir's scalar off by one
    # it holds at no K-type, for both signs, and garfinkle.theorem fails
    true_scalar = ModuleParams.scalar
    monkeypatch.setattr(
        ModuleParams, "scalar",
        lambda self, which, kt=None: true_scalar(self, which, kt) + off * (which == "g"),
    )
    for sign in (1, -1):
        assert not theorem_ingredients(ModuleParams(4, 6, 1, sign)).casimir_step_ok
    status, _, detail = _verdict("garfinkle.theorem", 4, 6, 1)
    assert status == "fail"
    assert detail["report"]["casimir_step_ok"] is False


def _clear_memos():
    garfinkle_obstruction.cache_clear()
    s4_vanishing.cache_clear()


@pytest.mark.parametrize(
    "p,q,m", [pytest.param(4, 4, 0, id="4-4-0"), pytest.param(4, 6, 1, id="4-6-1")]
)
def test_theorem_reads_the_sibling_results(p, q, m):
    run = CheckRun(p, q, m, 3, 3)
    theorem = REGISTRY["garfinkle.theorem"].fn
    _clear_memos()
    cold = theorem(run)
    _clear_memos()
    assert REGISTRY["garfinkle.obstruction"].fn(run)[0] is True
    assert REGISTRY["symsq.s4_vanishing"].fn(run)[0] is True
    before = [memo.cache_info() for memo in (garfinkle_obstruction, s4_vanishing)]
    warm = theorem(run)
    after = [memo.cache_info() for memo in (garfinkle_obstruction, s4_vanishing)]
    # one lookup per sign in each memo, and every lookup a hit
    assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)] == [(2, 0)] * 2
    assert warm == cold
    assert cold[0] is True


def test_parameter_window_probes_at_the_base_degree(monkeypatch):
    # one probe of the series' frame per (k, l) and family, with no depth
    # and no harmonic, and the refusals still come from the window rule
    import gkverify.checks as checks
    import gkverify.gkmodule as gkmodule

    probes = []
    real = gkmodule._frame

    def spy(params, kt):
        probes.append((params.sign, kt.k, kt.l))
        return real(params, kt)

    monkeypatch.setattr(gkmodule, "_frame", spy)
    monkeypatch.setattr(checks, "harmonic_basis", lambda *a: pytest.fail("built a harmonic"))
    result = REGISTRY["module.parameter_window"].fn(CheckRun(4, 6, 1, 3, 3))
    assert result == (True, 32, {"allowed": 12})
    assert sorted(probes) == [(s, k, l) for s in (-1, 1) for k in range(4) for l in range(4)]


@pytest.mark.parametrize(
    "p,q,triples,words", [(1, 1, 1, 3), (1, 2, 27, 25), (2, 3, 150, 25)]
)
def test_lie_samples_count_distinct_instances(p, q, triples, words):
    # one generator at (1, 1): its one triple and its words of length 2, 3, 4
    run = CheckRun(p, q, None, 3, 3)
    assert REGISTRY["lie.jacobi"].fn(run) == (True, triples, {})
    assert REGISTRY["lie.pbw_confluence"].fn(run) == (True, words, {})


def test_no_check_reads_a_whole_expansion(monkeypatch):
    # every suite over the default sweep, in-process: each check passes on at
    # least one instance, and none expands a radial series; the zero tests
    # read the labels of the series, and module.apply_linearity reads plain
    # harmonic products
    from gkverify.checks import selected_checks
    from gkverify.cli import DEFAULT_SWEEP
    from gkverify.poly import RadialSeries

    reads = []
    real = RadialSeries.expand
    monkeypatch.setattr(
        RadialSeries, "expand", lambda *args, **kw: reads.append(args) or real(*args, **kw)
    )
    _clear_memos()
    results = execute_jobs(plan_jobs(selected_checks(["all"]), DEFAULT_SWEEP, 3, 3))
    assert len({r.name for r in results}) == len(REGISTRY)
    assert all(r.status == "pass" for r in results), [r.to_dict() for r in results]
    assert all(r.instances >= 1 for r in results), [r.to_dict() for r in results]
    assert reads == []


def test_a_scaled_laplacian_fails_the_sl2_relation(monkeypatch):
    # the block commutators [L, R] = 4E + 2n and [E, R] = 2R, which the
    # module zero tests' label rules rest on, are read off laplacian_op
    import gkverify.checks as checks

    assert _verdict("casimir.sl2_relation", 4, 6, 1) == ("pass", 5, {"n": 10})
    real = checks.laplacian_op
    monkeypatch.setattr(checks, "laplacian_op", lambda space, block: real(space, block).scale(2))
    assert _verdict("casimir.sl2_relation", 4, 6, 1) == (
        "fail", 2, {"n": 10, "failed": "[L, R] on x"}
    )


@pytest.mark.parametrize("p,q,m", [(4, 4, 1), (4, 6, 2)])
def test_apply_linearity_fails_on_a_wrong_image(monkeypatch, p, q, m):
    # an apply that adds the square of each image it forms is not linear;
    # one that raises the degree of each image by two breaks the degree shift
    real = WeylOperator.apply
    assert _verdict("module.apply_linearity", p, q, m) == ("pass", 3, {})

    def squared(op, f):
        image = real(op, f)
        return image + image.mul(image)

    monkeypatch.setattr(WeylOperator, "apply", squared)
    assert _verdict("module.apply_linearity", p, q, m) == ("fail", 2, {"failed": "linearity"})
    monkeypatch.setattr(WeylOperator, "apply", lambda op, f: real(op, f).var_mul(0, 2))
    assert _verdict("module.apply_linearity", p, q, m) == (
        "fail", 2, {"failed": "degree_shift"}
    )


def test_wrong_xi_closed_form_is_a_failure(monkeypatch):
    # the comparison lives only in the check, so a wrong closed form is
    # reported as a failure with its detail, not as an error
    import gkverify.checks as checks
    import gkverify.symsq as symsq

    def scaled(sig):
        return xi_closed_form(sig).scale(2)

    monkeypatch.setattr(symsq, "xi_closed_form", scaled)
    monkeypatch.setattr(checks, "xi_closed_form", scaled)
    assert _verdict("symsq.xi_transport", 2, 4, 0) == ("fail", 1, {"failed": "closed_form"})


def test_field_axioms_fail_without_the_canonical_gcd(monkeypatch):
    # the check runs the package's polynomial arithmetic, so a reduction
    # that keeps the common factor of den and the numerators is caught
    assert _verdict("weyl.field_axioms", 2, 4, 0) == ("pass", 40, {})

    def uncancelled(cls, ctx, terms, den):
        terms = {k: v for k, v in terms.items() if v}
        return cls._make(ctx, terms, den if terms else 1)

    monkeypatch.setattr(poly.SparseRational, "reduced", classmethod(uncancelled))
    status, _, detail = _verdict("weyl.field_axioms", 2, 4, 0)
    assert status == "fail" and "failed" in detail, detail


def test_plan_jobs_refuses_a_depth():
    # the benchmark worker passes None in the place of the retired depth
    defs = [REGISTRY["lie.duality"]]
    assert plan_jobs(defs, [(2, 2, 0)], 3, 3, None) == plan_jobs(defs, [(2, 2, 0)], 3, 3)
    for depth in (0, 12):
        with pytest.raises(ValueError, match="max_degree must be None"):
            plan_jobs(defs, [(2, 2, 0)], 3, 3, depth)


def test_jobs_run_serially_only():
    jobs = plan_jobs([REGISTRY["lie.duality"]], [(2, 2, 0)], 3, 3)
    assert [r.status for r in execute_jobs(jobs, threads=1)] == ["pass"]
    for threads in (0, 2):
        with pytest.raises(ValueError, match="threads must be 1"):
            execute_jobs(jobs, threads=threads)


@pytest.mark.parametrize("p, q", [(1, 2), (4, 4)])
def test_jacobi_counts_every_triple_it_draws(p, q):
    # the memo of inner brackets changes no count: every drawn triple is one
    # instance (27 at (1, 2), where fewer than 150 triples exist)
    n = (p + q) * (p + q - 1) // 2
    assert _verdict("lie.jacobi", p, q, None)[:2] == ("pass", min(150, n**3))


def test_a_flipped_structure_constant_fails_jacobi_and_homomorphism(monkeypatch):
    # one constant's sign flipped at (4, 4), in both flavors' tables: the
    # Jacobi memo must still see it (X flavor), and so must the operator
    # realization (M flavor)
    real = liealg._bracket_table
    mutants = {}
    for flavor in ("X", "M"):
        table = mutants[flavor] = liealg._StructureConstants(real((4, 4), flavor))
        key = next(iter(table))  # the pair (G_12, G_13)
        table[key] = {g: -c for g, c in table[key].items()}
    monkeypatch.setattr(
        liealg,
        "_bracket_table",
        lambda sig, flavor: mutants[flavor] if sig == (4, 4) else real(sig, flavor),
    )
    assert _verdict("lie.jacobi", 4, 4, None)[:2] == ("fail", 18)
    assert _verdict("lie.homomorphism", 4, 4, None)[:2] == ("fail", 2)


def test_a_commutator_without_its_second_order_fails_the_realization(monkeypatch):
    # a commutator kernel that forms only AB's contractions, never BA's,
    # must be caught by the bracket realization and by the commutation
    # relations
    monkeypatch.setattr(WeylOperator, "commutator", lambda A, B: two_pass_commutator(A, B, ba=False))
    for name in ("lie.homomorphism", "weyl.canonical_commutation"):
        assert _verdict(name, 4, 4, None)[:2] == ("fail", 1), name
    monkeypatch.undo()
    for name in ("lie.homomorphism", "weyl.canonical_commutation"):
        assert _verdict(name, 4, 4, None)[0] == "pass", name


def test_a_lie_realization_pass_builds_each_shape_and_family_once(monkeypatch):
    # the lie and weyl suites on the 28 signatures p + q <= 8 with p, q >= 1:
    # one harmonic nullspace per (block size, degree), 7 sizes x 4 degrees,
    # and one weyl operator family per space
    nullspaces = []
    real = poly.rref_nullspace
    monkeypatch.setattr(poly, "rref_nullspace", lambda *a: nullspaces.append(a) or real(*a))
    for cached in (poly.harmonic_basis, poly._shape_basis, checks._op_family):
        cached.cache_clear()
    tuples = [(p, q, None) for p in range(1, 8) for q in range(1, 9 - p)]
    results = execute_jobs(plan_jobs(selected_checks(["lie", "weyl"]), tuples, 3, 3))
    assert {r.status for r in results} == {"pass"}
    assert len(nullspaces) == 28
    assert checks._op_family.cache_info().misses == 28
