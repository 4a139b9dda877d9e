"""Self-test of the benchmark harness at tiny sizes.

Usage, from the root of a checkout:

    python3 gkbench/selftest.py

Runs every workload on the tiny parameter sets of ``workloads.SELFTEST``,
untraced and traced, and checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that the metric tables agree
with the registry and with ``BENCHMARK.json``, that the host-speed probe
scales slow stretches down, that the verdict gate trips
on injected wrong verdicts, and that the benchmark refuses to run without
the package sources.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

import probe
import run
from workloads import SELFTEST, WORKLOADS, gate


def check_tables() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {w["name"] for w in spec["workloads"]}
    assert listed == set(WORKLOADS), "BENCHMARK.json workloads differ from workloads.py"
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        assert listed == table, f"BENCHMARK.json {key} differs from run.py"
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from gkverify.checks import selected_checks

    suites = sorted({s for suites, _ in WORKLOADS.values() for s in suites})
    registered = sorted(cd.name for cd in selected_checks(suites))
    assert registered == sorted(run.CHECKS), "run.CHECKS differs from the registry"


def check_probe() -> None:
    """Normalization on made-up probe samples: slow stretches count less."""
    k = probe.K_REF_S
    # Kernels at t = 0, 1, 2, 3: fast, fast, twice as slow, twice as slow.
    p = probe.Speed([(0.0, k), (1.0, 1.0 + k), (2.0, 2.0 + 2 * k), (3.0, 3.0 + 2 * k)])
    norm, raw = p.seconds(k, 1.0)
    assert math.isclose(raw, 1.0 - k) and math.isclose(norm, raw), (norm, raw)
    # Probe kernels are left out; the gap between a fast and a slow kernel
    # takes their mean time, 1.5 k.
    norm, raw = p.seconds(0.0, 2.0)
    assert math.isclose(raw, 2.0 - 2 * k), (norm, raw)
    assert math.isclose(norm, (1.0 - k) * (1 + 1 / 1.5)), (norm, raw)
    norm, raw = p.seconds(2.0 + 2 * k, 3.0)
    assert math.isclose(norm, raw / 2), (norm, raw)
    norm, raw = p.seconds(-1.0, 0.0)
    assert math.isclose(norm, raw) and math.isclose(raw, 1.0), (norm, raw)


def check_run(workload: str, trace: bool) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, 1, 1, trace, selftest=True)
    text = out.getvalue()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1, result
    table = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(table), workload
    for name, unit in table.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit and math.isfinite(entry["value"]), (name, entry)
        assert f"{name}: {entry['value']} {unit}" in text, f"{name} not printed"
        if not trace:
            assert entry["value"] > 0, f"{name} reads 0 on {workload}"
    assert json.loads(json.dumps(result)) == result
    return result


def check_gate() -> None:
    """Inject wrong verdicts into a real pass and expect the gate to trip."""
    workload = "annihilator"
    passed = run.spawn(workload, 1, "--selftest")["results"]
    assert gate(passed) == ([], []), gate(passed)

    def tampered(edit):
        results = copy.deepcopy(passed)
        edit(results)
        return gate(results)

    def flip_status(results):
        results[0]["status"] = "fail"

    def raise_error(results):
        results[0]["status"] = "error"

    def flip_dichotomy(results):
        r = next(r for r in results if r["name"] == "garfinkle.theorem")
        rep = r["detail"]["per_sign"]["1"]
        rep["joseph_consistent"] = not rep["joseph_consistent"]

    def flip_witness(results):
        r = next(r for r in results if r["name"] == "garfinkle.obstruction")
        r["detail"]["per_sign"]["-1"]["exists"] = not r["detail"]["per_sign"]["-1"]["exists"]

    assert len(tampered(flip_status)[1]) == 1
    assert len(tampered(raise_error)[0]) == 1
    assert len(tampered(flip_dichotomy)[1]) == 1
    assert len(tampered(flip_witness)[1]) == 1


def check_refuses_without_sources() -> None:
    """In a directory with only the benchmark files, exit non-zero, print no result."""
    bare = os.path.join(run.ROOT, ".gkbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            run.HERE,
            os.path.join(bare, os.path.basename(run.HERE)),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, os.path.join("gkbench", "run.py"), "--workload", "annihilator",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc


def main() -> int:
    check_tables()
    check_probe()
    check_gate()
    check_refuses_without_sources()
    for workload in SELFTEST:
        for trace in (False, True):
            result = check_run(workload, trace)
            print(f"ok {workload} trace={int(trace)}: {result['attempted']} checks")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
