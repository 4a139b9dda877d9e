"""scripts/sweep_diff.py: the report comparison that gates refactors, and
scripts/sweep_against.sh, which runs it on two trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "sweep_diff.py"


def _report(elapsed, scalar):
    check = {
        "detail": {"scalars": [scalar]},
        "elapsed": elapsed,
        "instances": 6,
        "name": "casimir.g_eigenvalue",
        "params": {"m": 0, "p": 2, "q": 4},
        "status": "pass",
    }
    return {"checks": [check], "summary": {"passed": 1, "elapsed": elapsed}}


def _diff(tmp_path, a, b):
    paths = []
    for name, report in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(report if isinstance(report, str) else json.dumps(report))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths], capture_output=True, text=True, timeout=60
    )


def test_reports_differing_only_in_elapsed_agree(tmp_path):
    done = _diff(tmp_path, _report(0.04, "-3"), _report(1.5, "-3"))
    assert done.returncode == 0
    assert done.stdout == ""


def test_changed_scalar_exits_1_with_its_path(tmp_path):
    done = _diff(tmp_path, _report(0.04, "-3"), _report(0.04, "-2"))
    assert done.returncode == 1
    assert done.stdout.strip() == "$.checks[0].detail.scalars[0]: '-3' != '-2'"


def test_unreadable_report_exits_2(tmp_path):
    done = _diff(tmp_path, _report(0.04, "-3"), "{not json")
    assert done.returncode == 2
    missing = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "a.json"), str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert missing.returncode == 2


def test_every_difference_is_listed_in_document_order(tmp_path):
    a = _report(0.04, "-3")
    b = _report(0.04, "-2")
    b["checks"][0]["instances"] = 4
    done = _diff(tmp_path, a, b)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "$.checks[0].detail.scalars[0]: '-3' != '-2'",
        "$.checks[0].instances: 6 != 4",
    ]


def _one_commit_repo(tmp_path):
    """A git repository whose one commit holds the package and the scripts."""
    tree = tmp_path / "tree"
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "gkverify", tree / "src" / "gkverify", ignore=skip)
    shutil.copytree(ROOT / "scripts", tree / "scripts", ignore=skip)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.org", "-C", str(tree)]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + args, check=True, capture_output=True, timeout=60)
    return tree / "scripts" / "sweep_against.sh"


def test_sweep_against_forwards_run_arguments(tmp_path):
    script = _one_commit_repo(tmp_path)
    args = ["bash", str(script), "HEAD", "--p", "2", "--q", "2", "--suite"]
    done = subprocess.run(args + ["weyl"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ""
    assert done.stderr.count(": exit 0") == 2
    # a suite only the run itself can refuse shows that the arguments reach it
    refused = subprocess.run(args + ["nosuch"], capture_output=True, text=True, timeout=300)
    assert refused.returncode == 2
    assert "exited with 2" in refused.stderr


_GOLDEN = [
    ([], "default_sweep.json"),
    (["--p", "6", "--q", "6", "--m", "3", "--suite", "casimir,module,paction"],
     "p6_q6_m3_module_suites.json"),
    (["--p", "1", "--q", "7", "--suite", "lie,weyl"], "p1_q7_lie_weyl.json"),
    (["--p", "7", "--q", "1", "--suite", "lie,weyl"], "p7_q1_lie_weyl.json"),
    (["--p", "2", "--q", "10", "--m", "1"], "p2_q10_m1.json"),
]


@pytest.mark.parametrize(
    "args,name",
    _GOLDEN,
    ids=["default", "p6_q6_m3_module_suites", "p1_q7_lie_weyl", "p7_q1_lie_weyl", "p2_q10_m1"],
)
def test_default_sweep_matches_the_golden_report(tmp_path, args, name):
    # the behaviour contract of a refactor: the JSON report of the default
    # sweep, of one module-suite run at (6,6,3), of the lie and weyl suites
    # at (1,7) and (7,1), each with a one-variable block and n = 8, and of
    # every suite at (2,10,1), whose k, l <= 2 box is empty and moves to the
    # window's corner, apart from timing, is the one pinned in tests/data
    out = tmp_path / "sweep.json"
    run = subprocess.run(
        [sys.executable, "-m", "gkverify.cli", "run", *args, "--format", "json",
         "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    golden = ROOT / "tests" / "data" / name
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(golden), str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, "report differs from the golden one at:\n" + done.stdout
