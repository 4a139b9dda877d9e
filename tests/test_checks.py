"""Registered checks called directly, outside the runner."""

import pytest

from gkverify.checks import REGISTRY, CheckRun, execute_jobs, plan_jobs
from gkverify.gkmodule import DegenerateSampleError, ModuleParams, garfinkle_obstruction
from gkverify.symsq import s4_vanishing, xi_closed_form

# At (2, 14, 1) the window needs k - l = 5 or 7, so no K-type has k, l <= 3.
EMPTY_WINDOW = CheckRun(2, 14, 1, None, 3, 3)

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


@pytest.mark.parametrize("name", VECTOR_CHECKS)
def test_check_that_sees_no_vector_fails(name):
    ok, _validity, detail = REGISTRY[name].fn(EMPTY_WINDOW)
    assert ok is False, detail


# No default sample at (2, 10, 1) and (10, 2, 1); at (2, 8, 1) the three
# samples share the one Xi eigenvalue -16/5.
DEGENERATE_TUPLES = [(2, 10, 1), (10, 2, 1), (2, 8, 1)]


@pytest.mark.parametrize("p,q,m", DEGENERATE_TUPLES)
def test_degenerate_samples_are_an_error(p, q, m):
    for sign in (1, -1):
        with pytest.raises(DegenerateSampleError):
            garfinkle_obstruction(ModuleParams(p, q, m, sign), 2 * m + 8)
    defs = [REGISTRY["garfinkle.obstruction"], REGISTRY["garfinkle.theorem"]]
    results = execute_jobs(plan_jobs(defs, [(p, q, m)], 3, 3, None))
    assert [r.name for r in results] == ["garfinkle.obstruction", "garfinkle.theorem"]
    for r in results:
        assert r.status == "error", r.to_dict()
        assert r.detail["error"].startswith("DegenerateSampleError: "), r.detail


@pytest.mark.parametrize("p,q,m", DEGENERATE_TUPLES)
def test_degenerate_samples_raise_on_every_call(p, q, m):
    # a raised error is not memoized: each call solves again and raises again
    params = ModuleParams(p, q, m, 1)
    garfinkle_obstruction.cache_clear()
    for calls in (1, 2, 3):
        with pytest.raises(DegenerateSampleError):
            garfinkle_obstruction(params, 2 * m + 8)
        info = garfinkle_obstruction.cache_info()
        assert (info.misses, info.currsize) == (calls, 0)


def _clear_memos():
    garfinkle_obstruction.cache_clear()
    s4_vanishing.cache_clear()


@pytest.mark.parametrize("p,q,m", [(4, 4, 0), (4, 6, 1)])
def test_theorem_reads_the_sibling_results(p, q, m):
    run = CheckRun(p, q, m, None, 3, 3)
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
    # every probe is built at k + l + 2m, never at the working depth, and the
    # refusals still come from the window rule
    import gkverify.checks as checks

    depths = []
    real = checks.typical_element

    def spy(params, h1, h2, D):
        depths.append((h1.degree(), h2.degree(), D))
        return real(params, h1, h2, D)

    monkeypatch.setattr(checks, "typical_element", spy)
    ok, _validity, detail = REGISTRY["module.parameter_window"].fn(CheckRun(4, 6, 1, None, 3, 3))
    assert ok is True
    assert detail == {"allowed": 12, "rejected": 20}
    assert len(depths) == 32
    assert all(D == k + l + 2 for k, l, D in depths)


@pytest.mark.parametrize(
    "p,q,triples,words", [(1, 1, 1, 3), (1, 2, 27, 25), (2, 3, 150, 25)]
)
def test_lie_samples_count_distinct_instances(p, q, triples, words):
    # one generator at (1, 1): its one triple and its words of length 2, 3, 4
    run = CheckRun(p, q, None, None, 3, 3)
    assert REGISTRY["lie.jacobi"].fn(run) == (True, None, {"triples_checked": triples})
    assert REGISTRY["lie.pbw_confluence"].fn(run) == (True, None, {"words_checked": words})


def test_default_depth_covers_large_k_l():
    # the working depth keeps a headroom of 6 over the base degree k + l + 2m
    assert CheckRun(4, 6, 1, None, 3, 3).depth() == 14
    assert CheckRun(4, 4, 0, None, 8, 8).depth() == 22
    assert CheckRun(4, 4, 0, 16, 8, 8).depth() == 16
    defs = [d for d in REGISTRY.values() if d.suite in ("casimir", "module")]
    results = execute_jobs(plan_jobs(defs, [(4, 4, 0)], 8, 8, None))
    assert len(results) == 13
    assert all(r.status == "pass" for r in results), [r.to_dict() for r in results]


def test_wrong_xi_closed_form_is_a_failure(monkeypatch):
    # the comparison lives only in the check, so a wrong closed form is
    # reported as a failure with its detail, not as an error
    import gkverify.checks as checks
    import gkverify.symsq as symsq

    def scaled(sig):
        return xi_closed_form(sig).scale(2)

    monkeypatch.setattr(symsq, "xi_closed_form", scaled)
    monkeypatch.setattr(checks, "xi_closed_form", scaled)
    (result,) = execute_jobs(plan_jobs([REGISTRY["symsq.xi_transport"]], [(2, 4, 0)], 3, 3, None))
    assert (result.status, result.detail) == ("fail", {"failed": "closed_form"})


def test_jobs_run_serially_only():
    jobs = plan_jobs([REGISTRY["lie.duality"]], [(2, 2, 0)], 3, 3, None)
    assert [r.status for r in execute_jobs(jobs, threads=1)] == ["pass"]
    for threads in (0, 2):
        with pytest.raises(ValueError, match="threads must be 1"):
            execute_jobs(jobs, threads=threads)
