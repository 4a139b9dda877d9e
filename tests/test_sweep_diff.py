"""scripts/sweep_diff.py: the report comparison that gates refactors."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep_diff.py"


def _report(elapsed, validity):
    check = {
        "detail": {"checked": 6, "scalars": ["-3"]},
        "elapsed": elapsed,
        "name": "casimir.g_eigenvalue",
        "params": {"m": 0, "p": 2, "q": 4},
        "status": "pass",
        "validity": validity,
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
    done = _diff(tmp_path, _report(0.04, 8), _report(1.5, 8))
    assert done.returncode == 0
    assert done.stdout == ""


def test_changed_validity_exits_1_with_its_path(tmp_path):
    done = _diff(tmp_path, _report(0.04, 8), _report(0.04, 6))
    assert done.returncode == 1
    assert done.stdout.strip() == "$.checks[0].validity: 8 != 6"


def test_unreadable_report_exits_2(tmp_path):
    done = _diff(tmp_path, _report(0.04, 8), "{not json")
    assert done.returncode == 2
    missing = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "a.json"), str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert missing.returncode == 2


def test_every_difference_is_listed_in_document_order(tmp_path):
    a = _report(0.04, 8)
    b = _report(0.04, 6)
    b["checks"][0]["detail"]["checked"] = 4
    done = _diff(tmp_path, a, b)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [
        "$.checks[0].detail.checked: 6 != 4",
        "$.checks[0].validity: 8 != 6",
    ]
