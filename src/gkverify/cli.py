"""Command line runner for the named verification checks.

Two subcommands:

* ``gkverify list`` prints every registered check with its suite and a
  one-line description.
* ``gkverify run`` executes the selected suites over one parameter tuple
  (``--p --q --m``) or, when none is given, over the built-in sweep of
  five tuples, and emits a text or JSON report.

Each run option is declared once, in ``_OPTIONS``: it gives the
``--name`` flag (``_`` written as ``-``) and the ``name = value`` key of a
``--config`` file, and explicit flags win over file values.  The
``SuiteConfig`` fields hold the only defaults.  Checks run one after
another.  Runs are deterministic: two runs with the same configuration
produce identical reports except for the ``elapsed`` timing fields.  The exit status is 0
exactly when every executed check passed, 1 when any failed or errored,
and 2 for configuration errors, among them an ``--out`` path that cannot be
opened (it is opened before any check runs) and the ``symsq`` suite at
p + q < 4.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .checks import (
    ALL_SUITES,
    MODULE_SUITES,
    CheckResult,
    execute_jobs,
    plan_jobs,
    resolve_suites,
    selected_checks,
)
from .gkmodule import ModuleParams

DEFAULT_SWEEP: Tuple[Tuple[int, int, int], ...] = (
    (2, 4, 0),
    (3, 3, 0),
    (4, 4, 0),
    (4, 4, 1),
    (4, 6, 2),
)


class ConfigError(ValueError):
    """Raised for invalid or inconsistent run configuration."""


@dataclass
class SuiteConfig:
    """Resolved configuration for one ``run`` invocation: one field per
    ``_OPTIONS`` name, and its default is that option's default."""

    p: Optional[int] = None
    q: Optional[int] = None
    m: Optional[int] = None
    k_max: int = 3
    l_max: int = 3
    suite: str = "all"
    format: str = "text"
    out: Optional[str] = None

    def resolved_suites(self) -> Tuple[str, ...]:
        names = tuple(s.strip() for s in self.suite.split(",") if s.strip())
        if not names:
            raise ConfigError("empty suite selection")
        try:
            return resolve_suites(names)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def tuples(self) -> Tuple[Tuple[int, int, Optional[int]], ...]:
        given = [v is not None for v in (self.p, self.q, self.m)]
        if not any(given):
            return DEFAULT_SWEEP
        if self.p is None or self.q is None:
            raise ConfigError("give both --p and --q, or neither")
        if self.m is None:
            needs_m = set(self.resolved_suites()) & MODULE_SUITES
            if needs_m:
                raise ConfigError(
                    "the suites "
                    + ", ".join(sorted(needs_m))
                    + " need --m; give it or restrict --suite"
                )
        return ((self.p, self.q, self.m),)

    def validate(self) -> None:
        suites = self.resolved_suites()
        tuples = self.tuples()
        if self.k_max < 0 or self.l_max < 0:
            raise ConfigError("k_max and l_max must be non-negative")
        if self.format not in ("text", "json"):
            raise ConfigError("format must be 'text' or 'json'")
        for p, q, _ in tuples:
            if p < 1 or q < 1:
                raise ConfigError("need p >= 1 and q >= 1")
            if p + q < 4 and "symsq" in suites:
                raise ConfigError(
                    f"the symsq suite needs p + q >= 4 (p={p}, q={q}); restrict --suite"
                )
        if set(suites) & MODULE_SUITES:
            for p, q, m in tuples:
                try:
                    ModuleParams(p, q, m, 1)
                except ValueError as exc:
                    raise ConfigError(
                        f"invalid parameters (p={p}, q={q}, m={m}): {exc}"
                    ) from exc


_OPTIONS: Dict[str, Tuple[type, str]] = {
    "p": (int, "first block size"),
    "q": (int, "second block size"),
    "m": (int, "family parameter"),
    "k_max": (
        int,
        "first-block size of the sampled K-type box: k <= k_max if that box holds "
        "a K-type of the family, else k0 <= k <= k0 + k_max from the family's "
        "K-type (k0, l0) of least k + l",
    ),
    "l_max": (int, "second-block size of that box: l <= l_max, or l0 <= l <= l0 + l_max"),
    "suite": (str, "comma-separated suites: " + ", ".join(ALL_SUITES) + ", or all"),
    "format": (str, "report format: text or json"),
    "out": (str, "write the report here"),
}


def _load_config_file(path: str) -> Dict[str, object]:
    values: Dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def _build_config(args: argparse.Namespace) -> SuiteConfig:
    values = _load_config_file(args.config) if args.config else {}
    for name in _OPTIONS:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
    config = SuiteConfig(**values)
    config.validate()
    return config


def build_report(config: SuiteConfig, results: Sequence[CheckResult]) -> Dict:
    """Assemble the deterministic report dictionary."""
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    errors = sum(1 for r in results if r.status == "error")
    return {
        "config": {
            "p": config.p,
            "q": config.q,
            "m": config.m,
            "k_max": config.k_max,
            "l_max": config.l_max,
            "suites": list(config.resolved_suites()),
            "tuples": [list(t) for t in config.tuples()],
        },
        "checks": [r.to_dict() for r in results],
        "summary": {
            "total": len(results),
            "passed": passed,
            "failed": failed,
            "errors": errors,
            "elapsed": round(sum(r.elapsed for r in results), 6),
        },
    }


def format_text(report: Dict) -> str:
    lines: List[str] = []
    cfg = report["config"]
    tuples = ", ".join(
        "(" + ", ".join("-" if v is None else str(v) for v in t) + ")"
        for t in cfg["tuples"]
    )
    lines.append(f"suites: {', '.join(cfg['suites'])}")
    lines.append(f"tuples: {tuples}")
    for rec in report["checks"]:
        params = " ".join(f"{k}={v}" for k, v in sorted(rec["params"].items()))
        lines.append(
            f"{rec['status'].upper():5}  {rec['name']:28} {params:18}  ({rec['elapsed']:.2f}s)"
        )
        if rec["status"] != "pass":
            lines.append(f"       detail: {json.dumps(rec['detail'], sort_keys=True)}")
    s = report["summary"]
    lines.append(
        f"total {s['total']}: {s['passed']} passed, {s['failed']} failed, "
        f"{s['errors']} errors  ({s['elapsed']:.2f}s)"
    )
    return "\n".join(lines) + "\n"


def run_command(args: argparse.Namespace) -> int:
    try:
        config = _build_config(args)
        # open the report before any check runs, so a bad path costs no sweep
        out = open(config.out, "w", encoding="utf-8") if config.out is not None else None
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        reason = f"cannot write report to {config.out}: {exc.strerror}"
        print(f"configuration error: {reason}", file=sys.stderr)
        return 2
    defs = selected_checks(config.resolved_suites())
    results = execute_jobs(plan_jobs(defs, config.tuples(), config.k_max, config.l_max))
    report = build_report(config, results)
    if config.format == "json":
        rendered = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        rendered = format_text(report)
    if out is not None:
        with out:
            out.write(rendered)
        s = report["summary"]
        print(
            f"wrote {config.out}: {s['passed']}/{s['total']} passed, "
            f"{s['failed']} failed, {s['errors']} errors"
        )
    else:
        sys.stdout.write(rendered)
    s = report["summary"]
    return 0 if s["failed"] == 0 and s["errors"] == 0 else 1


def list_command(_: argparse.Namespace) -> int:
    for cd in selected_checks(("all",)):
        print(f"{cd.name:32} [{cd.suite}]  {cd.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkverify",
        description="exact verification checks for the module family library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute check suites and emit a report")
    for name, (kind, help_text) in _OPTIONS.items():
        runp.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, help=help_text)
    runp.add_argument(
        "--config", type=str, default=None, help="key=value file; flags win"
    )
    runp.set_defaults(func=run_command)

    listp = sub.add_parser("list", help="list registered checks")
    listp.set_defaults(func=list_command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
