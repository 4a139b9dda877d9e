"""The gkverify benchmark: time to correct verdicts on the paper's identities.

Usage, from the root of a checkout:

    python3 gkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  Every pass runs in a fresh
interpreter (``worker.py``), so the ``lru_cache`` tables start cold as they
do for each ``gkverify run``.

``--trace 0`` repeats untraced passes until the next one would end after
``--seconds`` (at least one pass), times ``SETUP_SAMPLES`` plan-only
interpreters for ``setup_s``, half before the passes and half after, and
reports the median of each end-to-end metric over the passes.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced one; the spans are kept in
``.gkbench/spans-<workload>.json``.

Times are normalized seconds: each worker runs a host-speed probe
(``probe.py``) beside its pass and scales every stretch of time by the
speed the probe measured in it, because the cores of a shared host can
switch between a fast and a slower state (1.8x apart, every second or so,
on a 2-vCPU Intel Xeon host).  The raw seconds and the host factor of
each run are printed with the host record.

Every verdict of every pass goes through the gate in ``workloads.py``.
Human-readable lines (every failed check, the host record, the failure
share and each metric with its unit) come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A check that raises counts as failed; a check that answers
against the known result makes the run incorrect and counts as failed too.
``pass_share`` is ``1 - fail_share``, so that no end-to-end metric reads 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import derive
from workloads import WORKLOADS, gate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 10
PASS_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "slowest_check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}

# The checks of the three workloads, for ``checks.<name>.s``.
CHECKS = (
    "lie.commutant lie.duality lie.homomorphism lie.jacobi lie.pbw_confluence "
    "lie.symbol_roundtrip weyl.canonical_commutation weyl.commutator_jacobi "
    "weyl.compose_apply weyl.dagger_harmonic weyl.degree_bookkeeping "
    "weyl.euler_scalar weyl.field_axioms weyl.harmonic_dimension "
    "casimir.g_closed_form casimir.g_eigenvalue casimir.op_closed_form "
    "casimir.op_eigenvalue casimir.oq_closed_form casimir.oq_eigenvalue "
    "casimir.sl2_relation casimir.xi_eigenvalue module.apply_linearity "
    "module.membership module.parameter_window module.radial_uniformity "
    "module.series_recurrence paction.degenerate_guard paction.four_term "
    "symsq.decomposition symsq.gamma2_q symsq.gamma2_xi symsq.q_transport "
    "symsq.s4_vanishing symsq.xi_transport garfinkle.obstruction garfinkle.theorem"
).split()

# Inclusive span time, in seconds, of these traced calls.
SPAN_SECONDS = (
    "liealg.bracket liealg.pi_casimir liealg.pbw_normal_form weyl.compose "
    "weyl.apply poly.mul poly.series_expand poly.harmonic_basis linalg.add_row "
    "linalg.rref_nullspace gkmodule.typical_element gkmodule.casimir_apply "
    "gkmodule.verify_membership gkmodule.p_action_check gkmodule.psi_series "
    "gkmodule.garfinkle_obstruction symsq.decompose_S2 symsq.s4_vanishing "
    "symsq.theorem_ingredients"
).split()
SPAN_CALLS = ("liealg.bracket", "weyl.compose", "weyl.apply", "poly.mul", "linalg.add_row")
SPAN_TERMS = ("weyl.compose", "weyl.apply", "poly.mul")
REPEAT_SHARES = (
    "gkmodule.garfinkle_obstruction",
    "gkmodule.typical_element",
    "symsq.s4_vanishing",
)
SELF_LAYERS = ("poly", "linalg", "weyl", "liealg", "gkmodule", "symsq")


def per_layer_units():
    units = {f"checks.{c}.s": "s" for c in CHECKS}
    units.update({f"{layer}.self_s": "s" for layer in SELF_LAYERS})
    units.update({f"{n}.s": "s" for n in SPAN_SECONDS})
    units.update({f"{n}.calls": "count" for n in SPAN_CALLS})
    units.update({f"{n}.terms_out": "count" for n in SPAN_TERMS})
    units.update({f"{n}.repeat_share": "share" for n in REPEAT_SHARES})
    units.update(
        {
            "linalg.pivot_share": "share",
            "linalg.rank_max": "count",
            "exact_arith.mul_add_ns": "ns",
            "exact_arith.coeff_bits_max": "bits",
            "trace.overhead_share": "share",
        }
    )
    return units


PER_LAYER = per_layer_units()


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """One worker process; its JSON record.  Raises if the worker fails."""
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed), repr(t0)]
    proc = subprocess.run(
        cmd + list(flags),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def host_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def end_to_end(passes, setups) -> dict:
    """Medians over the untraced passes of one run."""

    def med(key):
        return statistics.median(p[key] for p in passes)

    return {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "slowest_check_s": med("slowest_check_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def raw_record(passes) -> dict:
    """Medians of the raw (not normalized) seconds, and of the host factor."""
    out = {k: statistics.median(p["raw"][k] for p in passes) for k in passes[0]["raw"]}
    out["host_factor"] = statistics.median(p["host_factor"] for p in passes)
    return out


def per_layer(traced, untraced, trace) -> dict:
    d = derive(trace)
    incl, calls, counts = d["incl"], d["calls"], d["counts"]
    out = {f"checks.{c}.s": incl.get(f"checks.{c}", 0.0) for c in CHECKS}
    out.update({f"{layer}.self_s": d["self_s"].get(layer, 0.0) for layer in SELF_LAYERS})
    out.update({f"{n}.s": incl.get(n, 0.0) for n in SPAN_SECONDS})
    out.update({f"{n}.calls": calls.get(n, 0) for n in SPAN_CALLS})
    out.update({f"{n}.terms_out": counts.get(n, 0) for n in SPAN_TERMS})
    for n in REPEAT_SHARES:
        out[f"{n}.repeat_share"] = counts.get(n, 0) / calls[n] if calls.get(n) else 0.0
    rows = calls.get("linalg.add_row", 0)
    out["linalg.pivot_share"] = counts.get("linalg.add_row", 0) / rows if rows else 0.0
    out.update(d["counters"])
    out["trace.overhead_share"] = traced["wall_s"] / untraced["wall_s"] - 1
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, selftest: bool = False) -> dict:
    """Run the passes and return the result object; prints details first.

    ``selftest`` swaps in the tiny parameter sets of ``workloads.SELFTEST``.
    """
    host = host_record()
    size = ("--selftest",) if selftest else ()
    if trace:
        os.makedirs(os.path.join(ROOT, ".gkbench"), exist_ok=True)
        span_file = os.path.join(ROOT, ".gkbench", f"spans-{workload}.json")
        untraced = spawn(workload, seed, *size)
        traced = spawn(workload, seed, "--trace", span_file, *size)
        with open(span_file, encoding="utf-8") as fh:
            metrics = per_layer(traced, untraced, json.load(fh))
        units = PER_LAYER
        passes = [untraced, traced]
    else:
        # Set-up is sampled before and after the passes, so that its median
        # spans the same stretch of time as the passes do.
        def plan_only(n):
            return [spawn(workload, seed, "--plan-only", *size)["setup_s"] for _ in range(n)]

        setups = plan_only(SETUP_SAMPLES // 2)
        deadline = time.monotonic() + seconds
        passes = []
        while True:
            start = time.monotonic()
            passes.append(spawn(workload, seed, *size))
            if time.monotonic() + (time.monotonic() - start) > deadline:
                break
        setups += plan_only(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        metrics = end_to_end(passes, setups + [p["setup_s"] for p in passes])
        units = END_TO_END
    host["loadavg_end"] = list(os.getloadavg())
    host["passes"] = len(passes)
    host["raw_medians"] = raw_record(passes)

    attempted = failed = 0
    wrong_answers = []
    for p in passes:
        errors, wrong = gate(p["results"])
        attempted += len(p["results"])
        failed += len(errors) + len(wrong)
        wrong_answers += wrong
        for line in errors:
            print(f"check raised: {line}")
        for line in wrong:
            print(f"wrong verdict: {line}")
    if not trace:
        metrics["pass_share"] = (attempted - failed) / attempted
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"fail_share: {failed}/{attempted} = {failed / attempted:.6f} share")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]} {unit}")
    return {
        "correct": not wrong_answers,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gkverify", "__init__.py")):
        print(f"error: no gkverify sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
