"""Command line interface: exit codes, report shape, determinism."""

import json
import subprocess
import sys
from pathlib import Path

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


def test_list_matches_the_golden_listing(capsys):
    # the registry's names, suites and descriptions, as pinned in tests/data/list.txt
    code, out, _ = _run(["list"], capsys)
    assert code == 0
    golden = Path(__file__).resolve().parent / "data" / "list.txt"
    assert out == golden.read_text()


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
    # the suites that need m are the ones owning a per-(p, q, m) check
    code, _, err = _run(["run", "--p", "4", "--q", "4", "--suite", "casimir,symsq"], capsys)
    assert code == 2
    assert "the suites casimir need --m" in err
    code, _, err = _run(["run", "--p", "4", "--q", "4", "--suite", "symsq"], capsys)
    assert code == 0, err


@pytest.mark.parametrize("suite", ["symsq", "lie,symsq"])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 1)])
def test_symsq_refuses_signatures_below_four(capsys, suite, p, q):
    # so(p + q) has no four-index tensor, and the decomposition needs n >= 4
    code, out, err = _run(["run", "--p", str(p), "--q", str(q), "--suite", suite], capsys)
    assert code == 2
    assert out == ""
    assert "configuration error: the symsq suite needs p + q >= 4" in err


def test_max_degree_is_a_config_error(tmp_path, capsys):
    # the module checks hold for the whole series and take no depth: the
    # retired flag and config key are unknown options, and no check runs
    argv = ["run", "--p", "4", "--q", "4", "--m", "0"]
    with pytest.raises(SystemExit) as exited:
        cli.main(argv + ["--max-degree", "12"])
    out, err = capsys.readouterr()
    assert exited.value.code == 2 and out == ""
    assert "unrecognized arguments: --max-degree 12" in err
    cfg = tmp_path / "depth.cfg"
    cfg.write_text("max_degree = 12\n")
    code, out, err = _run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert f"configuration error: {cfg}:1: unknown key 'max_degree'" in err
    assert "max_degree" not in cli._OPTIONS


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


def test_threads_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("suite = weyl\nthreads = 2\n")
    code, _, err = _run(["run", "--p", "2", "--q", "2", "--config", str(cfg)], capsys)
    assert code == 2
    assert f"configuration error: {cfg}:2: unknown key 'threads'" in err


def test_thread_environment_variable_is_ignored(monkeypatch, capsys):
    argv = ["run", "--p", "2", "--q", "2", "--suite", "weyl", "--format", "json"]
    monkeypatch.delenv("GKVERIFY_THREADS", raising=False)
    code_a, plain, _ = _run(argv, capsys)
    monkeypatch.setenv("GKVERIFY_THREADS", "soup")
    code_b, with_env, _ = _run(argv, capsys)
    assert code_a == code_b == 0
    a, b = _strip_timing(json.loads(plain)), _strip_timing(json.loads(with_env))
    assert a == b
    assert "threads" not in a["config"]


# one value for every run option, each different from its default
EVERY_OPTION = {
    "p": 2,
    "q": 4,
    "m": 0,
    "k_max": 2,
    "l_max": 1,
    "suite": "lie,weyl",
    "format": "json",
    "out": "report.json",
}


def _config(argv):
    return cli._build_config(cli.build_parser().parse_args(["run", *argv]))


def test_config_file_and_flags_give_the_same_config(tmp_path):
    assert EVERY_OPTION.keys() == cli._OPTIONS.keys()
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in EVERY_OPTION.items()))
    flags = [a for k, v in EVERY_OPTION.items() for a in ("--" + k.replace("_", "-"), str(v))]
    from_file = _config(["--config", str(cfg)])
    assert from_file == _config(flags) == cli.SuiteConfig(**EVERY_OPTION)
    assert from_file != cli.SuiteConfig()
    # a flag still wins over the file, and the other file values stay
    overridden = _config(["--config", str(cfg), "--k-max", "3", "--suite", "lie"])
    assert overridden == cli.SuiteConfig(**{**EVERY_OPTION, "k_max": 3, "suite": "lie"})


def test_bad_format_is_a_config_error(tmp_path, capsys):
    base = ["run", "--p", "2", "--q", "2", "--suite", "lie"]
    code, _, err = _run(base + ["--format", "xml"], capsys)
    assert code == 2
    assert "configuration error: format must be 'text' or 'json'" in err
    cfg = tmp_path / "xml.cfg"
    cfg.write_text("format = xml\n")
    code, _, err = _run(base + ["--config", str(cfg)], capsys)
    assert code == 2
    assert "configuration error: format must be 'text' or 'json'" in err


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


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_a_config_error_before_any_check(where, tmp_path, monkeypatch, capsys):
    # a missing directory or a directory as --out fails before the sweep, not after it
    dest = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path
    ran = []
    monkeypatch.setattr(cli, "execute_jobs", lambda jobs: ran.append(jobs) or [])
    argv = ["run", "--p", "2", "--q", "2", "--suite", "weyl", "--out", str(dest)]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert f"configuration error: cannot write report to {dest}: " in err
    assert ran == [] and out == ""


@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_out_is_a_config_error_before_any_check(source, tmp_path, monkeypatch, capsys):
    # an empty path cannot be opened, so it is an error, not a request for stdout
    ran = []
    monkeypatch.setattr(cli, "execute_jobs", lambda jobs: ran.append(jobs) or [])
    argv = ["run", "--p", "2", "--q", "2", "--suite", "weyl"]
    if source == "flag":
        argv += ["--out", ""]
    else:
        cfg = tmp_path / "empty_out.cfg"
        cfg.write_text("out =\n")
        argv += ["--config", str(cfg)]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert "configuration error: cannot write report to : " in err
    assert ran == [] and out == ""


def test_run_help_describes_the_moved_k_type_box(capsys):
    # --k-max and --l-max size a box that moves to the family's least K-type
    # when the box at the origin holds none of its K-types
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "k0 <= k <= k0 + k_max" in text and "l0 <= l <= l0 + l_max" in text
    assert "K-type degree to sample" not in text
