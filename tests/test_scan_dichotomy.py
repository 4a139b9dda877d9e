"""scripts/scan_dichotomy.py: the garfinkle suite on the tuples whose
windows start past the k, l <= 2 box, and every suite at p + q <= 10; the
scans over p + q <= 12 and beyond run outside the tests."""

import importlib.util
import re
from dataclasses import replace
from pathlib import Path

import pytest

from gkverify import gkmodule
from gkverify.checks import ALL_SUITES
from gkverify.gkmodule import ModuleParams, garfinkle_obstruction
from helpers import wrong_label_rule

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
    assert scan.disagreements(scan.run(LATE_WINDOWS)) == []
    # with Xi zero at every K-type no sample plan separates two
    # eigenvalues at m = 1: both checks of every tuple report the error
    monkeypatch.setattr(
        ModuleParams, "scalar", lambda self, which, kt=None: 0 if which == "xi" else 1
    )
    garfinkle_obstruction.cache_clear()
    bad = scan.disagreements(scan.run(LATE_WINDOWS))
    garfinkle_obstruction.cache_clear()
    assert len(bad) == 2 * len(LATE_WINDOWS), bad
    assert all("error" in line and "DegenerateSampleError" in line for line in bad), bad


def test_every_suite_agrees_at_p_plus_q_up_to_10(monkeypatch, capsys):
    # 34 tuples up to n = 10, the largest decompose_S2 of the annihilator
    # benchmark; every job passes.  A wrong label rule, c = 1/(2k + n - 1)
    # in the V and D rows, makes the scan report disagreements and exit 1
    tuples = scan.valid_tuples(10)
    assert len(tuples) == 34
    results = scan.run(tuples, ALL_SUITES)
    assert len(results) == 788
    assert {r.status for r in results} == {"pass"}
    assert scan.disagreements(results) == []
    assert scan.main(["10", "--suite", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (
        "34 tuples with p + q <= 10, suites " + ",".join(ALL_SUITES) + ": 788 jobs (788 pass); "
        "0 disagree"
    )
    # the timing line names three checks; no time is pinned
    timed = r"\d+\.\d\d s"
    names = "|".join(re.escape(f"{s}.") for s in ALL_SUITES)
    check = rf"(?:{names})\w+ {timed}"
    assert re.fullmatch(
        rf"{timed} in total; largest summed elapsed: {check}, {check}, {check}", lines[-2]
    ), lines[-2]
    monkeypatch.setattr(gkmodule, "_label_rule", wrong_label_rule("c_over_2k_plus_n_minus_1"))
    garfinkle_obstruction.cache_clear()
    try:
        assert scan.main(["10", "--suite", "all"]) == 1
    finally:
        garfinkle_obstruction.cache_clear()
    assert "0 disagree" not in capsys.readouterr().out


def test_a_job_that_is_not_a_pass_disagrees():
    # a fail or an error of any suite is a disagreement, even at m = 0
    (result,) = [r for r in scan.run([(2, 4, 0)], ["symsq"]) if r.name == "symsq.q_transport"]
    assert scan.disagreements([result]) == []
    for status in ("fail", "error"):
        line = f"symsq.q_transport {result.params}: {status} {result.detail}"
        assert scan.disagreements([replace(result, status=status)]) == [line]


def test_the_timing_line_ranks_checks_by_summed_elapsed():
    result = scan.run([(2, 4, 0)], ["symsq"])[0]
    timed = [
        replace(result, name=name, elapsed=t)
        for name, t in (("a.x", 1.0), ("b.y", 0.5), ("a.x", 2.0), ("c.z", 2.5), ("d.w", 0.1))
    ]
    assert scan.timing_line(timed, 7.25) == (
        "7.25 s in total; largest summed elapsed: a.x 3.00 s, c.z 2.50 s, b.y 0.50 s"
    )


def test_the_default_suite_keeps_its_summary(capsys):
    assert scan.main(["6"]) == 0
    assert capsys.readouterr().out == "3 tuples with p + q <= 6: 0 verdicts disagree with m == 0\n"
    with pytest.raises(SystemExit) as exc:
        scan.main(["6", "--suite", "nosuch"])
    assert exc.value.code == 2
