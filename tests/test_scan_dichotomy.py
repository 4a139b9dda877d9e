"""scripts/scan_dichotomy.py, on the tuples whose windows start past the
k, l <= 2 box; the full scan over p + q <= 12 runs outside the tests."""

import importlib.util
from pathlib import Path

from gkverify.gkmodule import ModuleParams, garfinkle_obstruction

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "scan_dichotomy", ROOT / "scripts" / "scan_dichotomy.py"
)
scan = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan)

LATE_WINDOWS = [(2, 10, 1), (10, 2, 1), (2, 8, 1), (2, 14, 1)]


def test_valid_tuples_are_the_module_parameters():
    tuples = scan.valid_tuples(12)
    assert len(tuples) == len(set(tuples)) == 70
    for p, q, m in tuples:
        ModuleParams(p, q, m)  # raises on an invalid tuple
    assert (2, 10, 1) in tuples and (2, 14, 1) not in tuples


def test_late_windows_agree_with_the_dichotomy(monkeypatch):
    assert scan.disagreements(LATE_WINDOWS) == []
    # with Xi zero at every K-type no sample plan separates two
    # eigenvalues at m = 1: both checks of every tuple report the error
    monkeypatch.setattr(
        ModuleParams, "scalar", lambda self, which, kt=None: 0 if which == "xi" else 1
    )
    garfinkle_obstruction.cache_clear()
    bad = scan.disagreements(LATE_WINDOWS)
    garfinkle_obstruction.cache_clear()
    assert len(bad) == 2 * len(LATE_WINDOWS), bad
    assert all("error" in line and "DegenerateSampleError" in line for line in bad), bad
