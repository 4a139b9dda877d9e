"""Registered checks called directly, outside the runner."""

import pytest

from gkverify.checks import REGISTRY, CheckRun, execute_jobs, plan_jobs
from gkverify.gkmodule import DegenerateSampleError, ModuleParams, garfinkle_obstruction

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
            garfinkle_obstruction(ModuleParams(p, q, m, sign))
    defs = [REGISTRY["garfinkle.obstruction"], REGISTRY["garfinkle.theorem"]]
    results = execute_jobs(plan_jobs(defs, [(p, q, m)], 3, 3, None))
    assert [r.name for r in results] == ["garfinkle.obstruction", "garfinkle.theorem"]
    for r in results:
        assert r.status == "error", r.to_dict()
        assert r.detail["error"].startswith("DegenerateSampleError: "), r.detail
