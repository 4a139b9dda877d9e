"""The benchmark can still trace the package.

The span tracer of ``gkbench/spans.py`` wraps package functions by name and
reads attributes of their results; a check that raises under it is counted
as failed, not as a wrong answer, so a renamed or deleted attribute would
not stop the harness self-test.  These runs require every traced check to
pass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["lie_realization", "module_action", "annihilator"])
def test_traced_worker_passes_every_check(tmp_path, workload):
    trace = tmp_path / "trace.json"
    run = subprocess.run(
        [
            sys.executable, str(ROOT / "gkbench" / "worker.py"), str(ROOT), workload, "1", "0",
            "--selftest", "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    results = json.loads(run.stdout)["results"]
    assert results
    assert [r for r in results if r["status"] != "pass"] == []
    assert json.loads(trace.read_text())["spans"]
