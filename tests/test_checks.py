"""Registered checks called directly, outside the runner."""

import pytest

from gkverify.checks import REGISTRY, CheckRun

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
