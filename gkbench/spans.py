"""Span tracer for the traced benchmark pass.

The tracer wraps, from outside the library, the public functions of each
package module and a few hot methods (``MultiPoly.mul``,
``RadialSeries.expand``, ``WeylOperator.compose``/``apply``,
``SparseRREF.add_row``).  Every call becomes a span
``(id, parent, job, name, start, end, n)``: ``job`` is the index of the check
job the call ran under and ``n`` an optional count attached at the boundary
(terms out, pivot or not, repeated arguments or not).  Spans stay in memory
and are written once, when the pass ends; ``derive`` turns a span file into
the per-layer metrics.

Coefficient arithmetic (``exact_arith``) is far too fine-grained to wrap; it
is measured by a microkernel on coefficients captured from the pass instead.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

# Package modules whose public functions are wrapped, bottom up.
LAYERS = ("poly", "linalg", "weyl", "liealg", "gkmodule", "symsq")

# Integer helpers called once per term: wrapping them would only add overhead.
SKIP = frozenset({"liealg.epsilon", "weyl.falling"})

# Methods wrapped in addition to module functions: (module, class, method, span).
METHODS = (
    ("poly", "MultiPoly", "mul", "poly.mul"),
    ("poly", "RadialSeries", "expand", "poly.series_expand"),
    ("weyl", "WeylOperator", "compose", "weyl.compose"),
    ("weyl", "WeylOperator", "apply", "weyl.apply"),
    ("linalg", "SparseRREF", "add_row", "linalg.add_row"),
)

# Spans that carry the size of their result in ``n``.
TERMS_OUT = frozenset({"poly.mul", "weyl.compose", "weyl.apply"})
# Spans whose results feed ``exact_arith.coeff_bits_max``.
COEFF_BITS = frozenset({"poly.mul", "weyl.apply"})
# Spans that mark in ``n`` whether their arguments were already seen this pass.
REPEATS = frozenset(
    {"gkmodule.garfinkle_obstruction", "gkmodule.typical_element", "symsq.s4_vanishing"}
)


def _coefficients(poly):
    """The stored coefficients of a polynomial, without unpacking its keys."""
    terms = getattr(poly, "_terms", None)
    return terms.values() if isinstance(terms, dict) else poly.monomials().values()


def coeff_bits(c) -> int:
    """Largest numerator or denominator bit length of an exact coefficient."""
    parts = (c,) if hasattr(c, "denominator") else (c.re, c.im)
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in parts
    )


class Tracer:
    """Collects spans and boundary counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.next_id = 0
        self.job = -1
        self.seen: Dict[str, set] = defaultdict(set)
        self.bits_max = 0
        self.rank_max = 0
        self.largest_element = None  # expansion of the largest typical element
        self.largest_result = None  # largest traced mul/apply result

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in REPEATS else None
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, self.job, name, start, clock(), None))
                raise
            end = clock()
            stack.pop()
            n = None
            if name in TERMS_OUT:
                n = len(out)
            elif name == "linalg.add_row":
                n = int(out[0] == "pivot")
                self.rank_max = max(self.rank_max, args[0].rank)
            elif sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = str(tuple(bound.arguments.values()))
                n = int(key in self.seen[name])
                self.seen[name].add(key)
            spans.append((sid, parent, self.job, name, start, end, n))
            if name in COEFF_BITS or name == "gkmodule.typical_element":
                # Reading coefficients is tracer work: give it its own span so
                # that it is not billed to the caller's self time.
                self._note(name, out, parent)
            return out

        return traced

    def _note(self, name: str, out, parent: int) -> None:
        start = time.perf_counter()
        if name == "gkmodule.typical_element":
            poly = out.expansion
            if self.largest_element is None or len(poly) > len(self.largest_element):
                self.largest_element = poly
        else:
            poly = out
            coeffs = _coefficients(poly)
            if coeffs:
                self.bits_max = max(self.bits_max, max(map(coeff_bits, coeffs)))
            if self.largest_result is None or len(poly) > len(self.largest_result):
                self.largest_result = poly
        sid = self.next_id
        self.next_id = sid + 1
        self.spans.append(
            (sid, parent, self.job, "trace.bookkeeping", start, time.perf_counter(), None)
        )

    def install(self, package) -> None:
        """Replace the traced callables everywhere the package refers to them."""
        modules = [m for k, m in sys.modules.items() if k.startswith(package.__name__)]
        swap = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in SKIP:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    swap[id(obj)] = (obj, self.wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap and swap[id(obj)][0] is obj:
                    setattr(mod, attr, swap[id(obj)][1])
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            setattr(cls, meth, self.wrap(span, getattr(cls, meth)))

    def wrap_check(self, job: int, name: str, fn):
        """Root span of one check job: every span below it carries ``job``."""
        inner = self.wrap(f"checks.{name}", fn)

        def run(check_run):
            self.job = job
            try:
                return inner(check_run)
            finally:
                self.job = -1

        return run

    # -- output ---------------------------------------------------------------

    def mul_add_ns(self, budget_s: float = 0.2) -> float:
        """Median time of one ``a * b + c`` on coefficients from this pass.

        The coefficients come from the largest typical element the pass
        built, or from its largest traced product when it built none.
        """
        poly = self.largest_element or self.largest_result
        coeffs = list(_coefficients(poly))[:256] if poly is not None else []
        if len(coeffs) < 3:
            return 0.0
        k = len(coeffs)
        triples = [(coeffs[i], coeffs[(3 * i + 1) % k], coeffs[(7 * i + 2) % k]) for i in range(k)]
        samples = []
        clock = time.perf_counter
        deadline = clock() + budget_s
        while clock() < deadline or len(samples) < 5:
            start = clock()
            for a, b, c in triples:
                a * b + c
            samples.append((clock() - start) / k * 1e9)
        return statistics.median(samples)

    def dump(self) -> Dict:
        return {
            "spans": self.spans,
            "counters": {
                "exact_arith.coeff_bits_max": self.bits_max,
                "exact_arith.mul_add_ns": self.mul_add_ns(),
                "linalg.rank_max": self.rank_max,
            },
        }


# -- derivation ---------------------------------------------------------------


def derive(trace: Dict) -> Dict[str, dict]:
    """Per-name and per-layer totals from a span dump.

    ``<name>.s`` sums the outermost spans of each name, so recursion is not
    counted twice; ``<layer>.self_s`` sums, over the layer's spans, each
    span's duration minus the durations of its direct children.
    """
    spans = trace["spans"]
    child = defaultdict(float)
    by_id = {}
    for sid, parent, _job, name, start, end, _n in spans:
        by_id[sid] = (parent, name)
        if parent >= 0:
            child[parent] += end - start
    incl = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    self_s = defaultdict(float)
    for sid, parent, _job, name, start, end, n in spans:
        dur = end - start
        layer = name.split(".", 1)[0]
        self_s[layer] += dur - child[sid]
        calls[name] += 1
        if n is not None:
            counts[name] += n
        anc = parent
        while anc >= 0 and by_id[anc][1] != name:
            anc = by_id[anc][0]
        if anc < 0:
            incl[name] += dur
    return {
        "incl": dict(incl),
        "calls": dict(calls),
        "counts": dict(counts),
        "self_s": dict(self_s),
        "counters": trace["counters"],
    }
