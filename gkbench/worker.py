"""One benchmark pass in a fresh interpreter, so every cache starts cold.

Usage: worker.py ROOT WORKLOAD SEED T0 [--plan-only] [--selftest] [--trace FILE]

``ROOT`` is the checkout whose ``src`` holds the package and ``T0`` the
``time.monotonic()`` reading taken just before this process was spawned,
so ``setup_s`` covers interpreter start, ``import gkverify`` and
``plan_jobs``.  The pass calls the public ``gkverify.checks`` API with one
thread, as ``gkverify run`` does by default, and prints one JSON line.
With ``--trace FILE`` the public functions are wrapped first and the spans
are written to FILE when the pass ends.

The process pins itself to one CPU and runs a host-speed probe
(``probe.py``) from its first line on; every time it reports is in
normalized seconds, with the raw seconds under ``raw``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import resource
import sys

from probe import CLOCK, Probe, pin


def timed(fn, times, job):
    """``fn`` recording its (start, end) under ``times[job]``."""

    def run(check_run):
        start = CLOCK()
        try:
            return fn(check_run)
        finally:
            times[job] = (start, CLOCK())

    return run


def main(argv) -> int:
    root, workload, seed, t0 = argv[0], argv[1], int(argv[2]), float(argv[3])
    flags = argv[4:]
    pin()
    probe = Probe()
    probe.start()
    trace_file = flags[flags.index("--trace") + 1] if "--trace" in flags else None
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import gkverify
    from gkverify.checks import execute_jobs, plan_jobs, selected_checks

    if not os.path.abspath(gkverify.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"gkverify imported from {gkverify.__file__}, not from {src}")

    from workloads import K_MAX, L_MAX, SELFTEST, WORKLOADS

    suites, tuples = (SELFTEST if "--selftest" in flags else WORKLOADS)[workload]
    tracer = None
    if trace_file:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(gkverify)
    # The seed shuffles the parameter tuples, as if the user had listed them
    # in another order; plan_jobs keeps its check-major order.  Shuffling the
    # jobs themselves would move the cold-cache cost of a signature from one
    # check to another and make slowest_check_s depend on the seed.
    tuples = list(tuples)
    random.Random(seed).shuffle(tuples)
    jobs = plan_jobs(selected_checks(suites), tuples, K_MAX, L_MAX, None)
    planned = CLOCK()
    if "--plan-only" in flags:
        setup_s, raw_setup_s = probe.stop().seconds(t0, planned)
        print(json.dumps({"setup_s": setup_s, "raw": {"setup_s": raw_setup_s}}))
        return 0
    if tracer is not None:
        jobs = [
            (dataclasses.replace(cd, fn=tracer.wrap_check(i, cd.name, cd.fn)), run, params)
            for i, (cd, run, params) in enumerate(jobs)
        ]
    job_times = {}
    jobs = [
        (dataclasses.replace(cd, fn=timed(cd.fn, job_times, i)), run, params)
        for i, (cd, run, params) in enumerate(jobs)
    ]
    start = CLOCK()
    results = execute_jobs(jobs, threads=1)
    end = CLOCK()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    speed = probe.stop()
    setup_s, raw_setup_s = speed.seconds(t0, planned)
    wall_s, raw_wall_s = speed.seconds(start, end)
    life_s, raw_life_s = speed.seconds(t0, end)
    raw_cpu_s = usage.ru_utime + usage.ru_stime - speed.kernel_s()
    checks = [speed.seconds(a, b) for a, b in job_times.values()]
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": raw_cpu_s * life_s / raw_life_s,
        "slowest_check_s": max(norm for norm, _ in checks),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "host_factor": speed.host_factor(),
        "raw": {
            "setup_s": raw_setup_s,
            "wall_s": raw_wall_s,
            "cpu_s": raw_cpu_s,
            "slowest_check_s": max(raw for _, raw in checks),
        },
        "results": [r.to_dict() for r in results],
    }
    if tracer is not None:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
