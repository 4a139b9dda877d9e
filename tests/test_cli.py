"""Command line interface: exit codes, report shape, determinism."""

import json
import subprocess
import sys

import pytest

from gkverify import cli
from gkverify.checks import selected_checks


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def test_list_names_every_check(capsys):
    code, out, _ = _run(["list"], capsys)
    assert code == 0
    assert "casimir.op_eigenvalue" in out
    assert "symsq.s4_vanishing" in out
    assert "garfinkle.obstruction" in out


def test_run_single_tuple_json(capsys):
    code, out, _ = _run(
        ["run", "--p", "2", "--q", "4", "--m", "0", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["tuples"] == [[2, 4, 0]]
    assert report["summary"]["failed"] == 0
    assert report["summary"]["errors"] == 0
    assert report["summary"]["total"] == len(report["checks"])
    statuses = {c["status"] for c in report["checks"]}
    assert statuses == {"pass"}


def test_run_is_deterministic(capsys):
    argv = ["run", "--p", "2", "--q", "4", "--m", "0", "--format", "json"]
    _, out1, _ = _run(argv, capsys)
    _, out2, _ = _run(argv, capsys)
    assert _strip_timing(json.loads(out1)) == _strip_timing(json.loads(out2))


def test_module_suites_reject_odd_signature(capsys):
    code, _, err = _run(["run", "--p", "3", "--q", "4", "--m", "0"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_free_suites_allow_odd_signature(capsys):
    code, out, _ = _run(
        ["run", "--p", "3", "--q", "4", "--suite", "lie", "--format", "json"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert all(c["name"].startswith("lie.") for c in report["checks"])


def test_unknown_suite_is_a_config_error(capsys):
    code, _, err = _run(["run", "--suite", "nonsense"], capsys)
    assert code == 2
    assert "configuration error: unknown suites: nonsense" in err
    with pytest.raises(ValueError, match="unknown suites: nonsense"):
        selected_checks(["lie", "nonsense"])


def test_missing_m_with_module_suites_is_rejected(capsys):
    code, _, err = _run(["run", "--p", "2", "--q", "4"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_truncation_failure_surfaces_as_error_exit(capsys):
    code, out, _ = _run(
        [
            "run",
            "--p", "2", "--q", "4", "--m", "0",
            "--max-degree", "2",
            "--suite", "module",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["errors"] > 0
    errored = [c for c in report["checks"] if c["status"] == "error"]
    assert any("TruncationError" in c["detail"].get("error", "") for c in errored)


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("# comment\np = 2\nq = 4\nm = 0\nsuite = lie\nformat = json\n")
    code, out, _ = _run(["run", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["suites"] == ["lie"]
    assert report["config"]["tuples"] == [[2, 4, 0]]

    # an explicit flag overrides the file value
    code, out, _ = _run(["run", "--config", str(cfg), "--suite", "weyl"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["config"]["suites"] == ["weyl"]


def test_out_file_holds_the_full_report(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = _run(
        [
            "run",
            "--p", "2", "--q", "2",
            "--suite", "weyl",
            "--format", "json",
            "--out", str(dest),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(dest.read_text())
    assert report["summary"]["failed"] == 0
    assert "passed" in out  # terminal still gets a one line summary


def test_thread_pool_matches_serial_run(monkeypatch, capsys):
    argv = ["run", "--p", "2", "--q", "2", "--suite", "weyl", "--format", "json"]
    monkeypatch.delenv("GKVERIFY_THREADS", raising=False)
    _, serial, _ = _run(argv, capsys)
    monkeypatch.setenv("GKVERIFY_THREADS", "2")
    _, pooled, _ = _run(argv, capsys)
    a = _strip_timing(json.loads(serial))
    b = _strip_timing(json.loads(pooled))
    del a["config"]["threads"], b["config"]["threads"]
    assert a == b


def test_bad_thread_env_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setenv("GKVERIFY_THREADS", "soup")
    code, _, err = _run(["run", "--p", "2", "--q", "2", "--suite", "weyl"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gkverify.cli", "list"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "lie.homomorphism" in proc.stdout


@pytest.mark.parametrize("p, q", [(1, 3), (3, 1)])
def test_free_suites_pass_with_a_one_variable_block(p, q, capsys):
    # a block of size one has no harmonics of degree two or more
    argv = ["run", "--p", str(p), "--q", str(q), "--suite", "lie,weyl", "--format", "json"]
    code, out, _ = _run(argv, capsys)
    report = json.loads(out)
    bad = [(c["name"], c["detail"]) for c in report["checks"] if c["status"] != "pass"]
    assert code == 0 and not bad
