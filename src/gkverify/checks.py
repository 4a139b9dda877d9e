"""Named verification checks with a uniform runner.

Every invariant the library promises is addressable here as a dotted name,
``suite.check``, grouped into seven suites:

* ``lie``: bracket, form, and realization identities of the Lie algebra,
* ``weyl``: operator algebra, harmonic decomposition, exact arithmetic,
* ``casimir``: closed operator forms and eigenvalue checks,
* ``module``: membership and structure of the module's typical elements, and
  linearity and degree shifts of operator application,
* ``paction``: the four-layer mixed generator action and its guards,
* ``symsq``: symmetric-square tensors, transport, and decomposition,
* ``garfinkle``: the degree-two obstruction solver and the combined
  annihilator criterion.

A check is a function of a resolved parameter context returning
``(ok, instances, detail)``: ``instances`` counts what it examined,
the failing instance included, and ``detail`` is a JSON-serializable dict.
The runner reports a check that examined nothing as an error, whatever its
``ok``, so no verdict rests on an empty plan.
Its suite is the prefix of its name.  No check takes a depth: the module
checks decide their identities for the whole series.  Families of
same-shaped checks are registered from one table each over one shared
body: the three ``casimir.*_closed_form`` checks, the four
``casimir.*_eigenvalue`` sweeps and the two ``symsq.gamma2_*`` identities.
Checks are deterministic: sampled families use fixed seeds derived from the
parameters, so two runs with the same configuration produce identical
reports apart from timing.  Scope controls fan-out: an ``once`` check runs
a single time, a ``pq`` check runs once per distinct block signature, and a
``pqm`` check runs once per full parameter tuple; the suites that own a
``pqm`` check, MODULE_SUITES, are the ones that need ``m``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations_with_replacement, islice, product
from math import comb, gcd
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import (
    ONE,
    ZERO,
    MultiPoly,
    RadialSeries,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rsq,
)
from . import gkmodule
from .linalg import SparseRREF
from .weyl import WeylOperator, euler_op, laplacian_op, rsq_op
from .liealg import (
    EnvelopingElement,
    LieElement,
    closed_operator,
    degree2_symbol,
    dual_sign,
    form_B,
    gamma2,
    generators,
    jacobiator,
    pbw_normal_form,
    pi_bracket,
    pi_casimir,
    pi_generator,
    sl2_casimir_op,
    sl2_triple,
    straighten,
    transport,
)
from .gkmodule import (
    KType,
    ModuleParams,
    PsiPoleError,
    eigenvalue_check,
    garfinkle_obstruction,
    ktype_box,
    ktype_elements,
    ktype_enumeration,
    p_action_check,
    product_elements,
    psi_series,
    typical_element,
    verify_membership,
)
from .symsq import (
    SymSquareTensor,
    adjoint_action,
    build_Q,
    build_Xi,
    decompose_S2,
    gamma2_q_identity,
    gamma2_xi_identity,
    s4_vanishing,
    theorem_ingredients,
    xi_closed_form,
)

ALL_SUITES: Tuple[str, ...] = (
    "lie",
    "weyl",
    "casimir",
    "module",
    "paction",
    "symsq",
    "garfinkle",
)


@dataclass(frozen=True)
class CheckRun:
    """Resolved parameters for one execution of one check."""

    p: Optional[int]
    q: Optional[int]
    m: Optional[int]
    k_max: int
    l_max: int

    @property
    def sig(self) -> Tuple[int, int]:
        return (self.p, self.q)

    @property
    def space(self) -> VariableSpace:
        return VariableSpace(self.p, self.q)

    def families(self) -> Tuple[ModuleParams, ModuleParams]:
        """The +1 and the -1 family at (p, q, m), in that order."""
        return tuple(ModuleParams(self.p, self.q, self.m, sign) for sign in (1, -1))


CheckFn = Callable[[CheckRun], Tuple[bool, int, Dict]]


@dataclass(frozen=True)
class CheckDef:
    name: str
    suite: str
    scope: str  # "once" | "pq" | "pqm"
    description: str
    fn: CheckFn


REGISTRY: Dict[str, CheckDef] = {}


def _register(name: str, scope: str, description: str):
    """Register a check under its dotted name, whose prefix is its suite."""
    suite = name.split(".", 1)[0]
    if suite not in ALL_SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if scope not in ("once", "pq", "pqm"):
        raise ValueError(f"unknown scope {scope!r}")

    def deco(fn: CheckFn) -> CheckFn:
        if name in REGISTRY:
            raise ValueError(f"duplicate check name {name!r}")
        REGISTRY[name] = CheckDef(name, suite, scope, description, fn)
        return fn

    return deco


def _register_table(scope: str, body, rows) -> None:
    """Register one check per row ``(name, description, *args)`` of a family
    of same-shaped checks, each running ``body(*args, run)``."""
    for name, description, *args in rows:
        _register(name, scope, description)(partial(body, *args))


# -- lie suite --------------------------------------------------------------------


@_register(
    "lie.homomorphism",
    "pq",
    "operator realization respects every bracket of canonical generator pairs",
)
def _lie_homomorphism(run: CheckRun):
    space = run.space
    gens = generators(*run.sig, "M")
    images = [pi_generator(g, space) for g in gens]
    pairs = 0
    for ia, ib in combinations_with_replacement(range(len(gens)), 2):
        pairs += 1
        lhs = images[ia].commutator(images[ib])
        if lhs != pi_bracket(gens[ia], gens[ib], space):
            return False, pairs, {"failed_pair": [list(gens[ia]), list(gens[ib])]}
    return True, pairs, {}


@_register(
    "lie.commutant",
    "pq",
    "every realized generator commutes with the three radial operators",
)
def _lie_commutant(run: CheckRun):
    space = run.space
    triple = sl2_triple(space)
    gens = generators(*run.sig, "M")
    checked = 0
    for g in gens:
        op = pi_generator(g, space)
        for z in triple:
            checked += 1
            if not op.commutator(z).is_zero():
                return False, checked, {"failed_generator": list(g)}
    return True, checked, {}


@_register(
    "lie.duality",
    "pq",
    "the half-trace form pairs each generator with its dual to one, all others to zero",
)
def _lie_duality(run: CheckRun):
    sig = run.sig
    gens = generators(*sig, "X")
    basis = [LieElement.basis(g, sig) for g in gens]
    checked = 0
    for a, ea in zip(gens, basis):
        for b, eb in zip(gens, basis):
            checked += 1
            # dual_sign is +-1, so form_B * dual_sign == 1 iff form_B == dual_sign
            if form_B(ea, eb) != (dual_sign(b, run.p) if a == b else 0):
                return False, checked, {"failed_pair": [list(a), list(b)]}
    return True, checked, {}


@_register(
    "lie.jacobi",
    "pq",
    "the bracket satisfies the Jacobi identity on a fixed-seed family of generator triples",
)
def _lie_jacobi(run: CheckRun):
    sig = run.sig
    gens = generators(*sig, "X")
    rng = random.Random(1000 * run.p + run.q)
    n = len(gens)
    # distinct triples, drawn without replacement as base-n indices
    picks = rng.sample(range(n**3), min(150, n**3))
    for seen, idx in enumerate(picks, 1):
        a, b, c = (gens[idx // n**e % n] for e in range(3))
        if jacobiator(sig, a, b, c):
            return False, seen, {"failed": True}
    return True, len(picks), {}


@_register(
    "lie.pbw_confluence",
    "pq",
    "straightening a word at the first or the last inversion yields the same normal form",
)
def _lie_pbw_confluence(run: CheckRun):
    sig = run.sig
    gens = generators(*sig, "X")
    rng = random.Random(2000 * run.p + run.q)
    n = len(gens)
    total = n**2 + n**3 + n**4
    # distinct words of length 2..4, drawn without replacement by index
    picks = rng.sample(range(total), min(25, total))
    for seen, idx in enumerate(picks, 1):
        length = 2
        while idx >= n**length:
            idx -= n**length
            length += 1
        word = tuple(gens[idx // n**e % n] for e in range(length))
        u = EnvelopingElement(sig, "X", {word: ONE})
        nf = pbw_normal_form(u)
        if nf != straighten(u, last=True):
            return False, seen, {"failed_word_length": length}
        if pbw_normal_form(nf) != nf:
            return False, seen, {"not_idempotent": True}
    return True, len(picks), {}


@_register(
    "lie.symbol_roundtrip",
    "pq",
    "the degree-two symbol of the multiplication image reproduces each symmetric tensor",
)
def _lie_symbol_roundtrip(run: CheckRun):
    sig = run.sig
    gens = generators(*sig, "X")
    tensors = [build_Q(sig, "X"), xi_closed_form(sig)]
    a, b = gens[0], gens[min(1, len(gens) - 1)]
    tensors.append(SymSquareTensor(sig, "X", {(a, a): ONE}))
    if a != b:
        tensors.append(SymSquareTensor(sig, "X", {(a, b): ONE, (b, a): ONE}))
    for seen, t in enumerate(tensors, 1):
        if degree2_symbol(gamma2(t)) != dict(t.coeffs):
            return False, seen, {"failed_tensor_terms": len(t.coeffs)}
    return True, len(tensors), {}


# -- weyl suite --------------------------------------------------------------------


@_register(
    "weyl.canonical_commutation",
    "pq",
    "derivative and multiplication operators satisfy the canonical commutation relations",
)
def _weyl_ccr(run: CheckRun):
    space = run.space
    nv = space.nvars
    ident = WeylOperator.identity(space)
    minus_ident = ident.neg()
    zero = WeylOperator.zero(space)
    diffs = [WeylOperator.diff(space, i) for i in range(nv)]
    vars_ = [WeylOperator.var(space, i) for i in range(nv)]
    checked = 0
    for i, (di, vi) in enumerate(zip(diffs, vars_)):
        for j, (dj, vj) in enumerate(zip(diffs, vars_)):
            checked += 1
            # [d_i, v_j] = delta_ij = -[v_j, d_i]: each order's contraction is read
            dv, vd = (ident, minus_ident) if i == j else (zero, zero)
            if di.commutator(vj) != dv or vj.commutator(di) != vd:
                return False, checked, {"failed_pair": [i, j]}
            if not di.commutator(dj).is_zero() or not vi.commutator(vj).is_zero():
                return False, checked, {"failed_pair": [i, j]}
    return True, checked, {}


def _op_family(space: VariableSpace) -> List[WeylOperator]:
    mixed = next(
        g for g in generators(space.p, space.q, "M") if g.i <= space.p < g.j
    )
    x1 = WeylOperator.var(space, 0)
    return [
        euler_op(space, "x"),
        laplacian_op(space, "x"),
        rsq_op(space, "y"),
        WeylOperator.diff(space, 0),
        # x_1^2 times the last variable: the x Laplacian contracts twice with it
        x1.compose(x1).compose(WeylOperator.var(space, space.nvars - 1)),
        pi_generator(mixed, space),
    ]


def _poly_family(space: VariableSpace) -> List[MultiPoly]:
    x1 = MultiPoly.variable(space, 0)
    y1 = MultiPoly.variable(space, space.p)
    s = x1 + y1
    return [
        MultiPoly.one(space),
        x1.mul(x1),
        x1.mul(y1),
        s.mul(s).mul(x1),
        rsq(space, "x").mul(rsq(space, "y")),
    ]


@_register(
    "weyl.compose_apply",
    "pq",
    "applying a composition agrees with applying the factors in sequence",
)
def _weyl_compose_apply(run: CheckRun):
    space = run.space
    ops = _op_family(space)
    polys = _poly_family(space)
    applied = [[B.apply(f) for f in polys] for B in ops]
    checked = 0
    for A in ops:
        for B, B_polys in zip(ops, applied):
            AB = A.compose(B)
            for f, Bf in zip(polys, B_polys):
                checked += 1
                if AB.apply(f) != A.apply(Bf):
                    return False, checked, {"failed": True}
    return True, checked, {}


@_register(
    "weyl.commutator_jacobi",
    "pq",
    "operator commutators satisfy the Jacobi identity on a deterministic family",
)
def _weyl_jacobi(run: CheckRun):
    space = run.space
    ops = _op_family(space)[:4]
    idx = range(len(ops))
    # each distinct [B,C] and [A,[B,C]] is formed once: 16 + 64 commutators
    inner = {(b, c): ops[b].commutator(ops[c]) for b in idx for c in idx}
    outer = {(a, b, c): ops[a].commutator(bc) for a in idx for (b, c), bc in inner.items()}
    for seen, (a, b, c) in enumerate(product(idx, repeat=3), 1):
        jac = outer[a, b, c] + outer[b, c, a] + outer[c, a, b]
        if not jac.is_zero():
            return False, seen, {"failed": True}
    return True, len(idx) ** 3, {}


@_register(
    "weyl.degree_bookkeeping",
    "pq",
    "composition never raises polynomial degree or derivative order beyond the factor sums",
)
def _weyl_degree(run: CheckRun):
    ops = _op_family(run.space)
    bounds = [(A.degree_raise(), A.max_derivative_order()) for A in ops]
    checked = 0
    for A, (raise_a, order_a) in zip(ops, bounds):
        for B, (raise_b, order_b) in zip(ops, bounds):
            C = A.compose(B)
            if C.is_zero():
                continue
            checked += 1
            if C.degree_raise() > raise_a + raise_b:
                return False, checked, {"failed": "degree_raise"}
            if C.max_derivative_order() > order_a + order_b:
                return False, checked, {"failed": "derivative_order"}
    return True, checked, {}


@_register(
    "weyl.harmonic_dimension",
    "pq",
    "harmonic basis sizes match the two-binomial dimension count and are annihilated exactly",
)
def _weyl_harmonic_dimension(run: CheckRun):
    space = run.space
    k_top = min(run.k_max, 6)
    sizes = {}
    for block in ("x", "y"):
        nblk = space.block_size(block)
        for k in range(k_top + 1):
            basis = harmonic_basis(space, block, k)
            seen, where = len(sizes) + 1, {"failed_block": block, "degree": k}
            if len(basis) != harmonic_dim(nblk, k):
                return False, seen, where
            rr = SparseRREF()
            for h in basis:
                if rr.add_row(h._terms)[0] != "pivot":
                    return False, seen, {**where, "dependent_basis": True}
                if not laplacian(h, block).is_zero():
                    return False, seen, where
            sizes[f"{block}{k}"] = len(basis)
    return True, len(sizes), {"basis_sizes": sizes}


@_register(
    "weyl.dagger_harmonic",
    "pq",
    "the degree-lowering correction of variable times harmonic is again harmonic",
)
def _weyl_dagger(run: CheckRun):
    space = run.space
    checked = 0
    corrected = 0
    for block in ("x", "y"):
        first = space.block_range(block)[0]
        for k in range(min(run.k_max, 4) + 1):
            basis = harmonic_basis(space, block, k)
            for h in basis[:2]:
                P = MultiPoly.variable(space, first).mul(h)
                Pd = dagger(P, block)
                checked += 1
                if not laplacian(Pd, block).is_zero():
                    return False, checked, {"failed_block": block, "degree": k}
                if Pd != P:
                    corrected += 1
    return True, checked, {"corrections_applied": corrected}


@_register(
    "weyl.euler_scalar",
    "pq",
    "the block Euler operator multiplies block-homogeneous polynomials by their degree",
)
def _weyl_euler(run: CheckRun):
    space = run.space
    checked = 0
    for block in ("x", "y"):
        for k in range(min(run.k_max, 4) + 1):
            # a one-variable block has no harmonics of degree two or more
            if harmonic_dim(space.block_size(block), k) == 0:
                continue
            h = harmonic_basis(space, block, k)[0]
            for f, degree in ((h, k), (h.mul(rsq(space, block)), k + 2)):
                checked += 1
                if euler(f, block) != f.scale(degree):
                    return False, checked, {"failed_block": block, "degree": k}
    return True, checked, {}


@_register(
    "weyl.field_axioms",
    "once",
    "exact coefficient arithmetic satisfies the field axioms on a fixed-seed sample",
)
def _weyl_field_axioms(run: CheckRun):
    rng = random.Random(20240819)

    def rand_q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    n_triples = 40
    for seen in range(1, n_triples + 1):
        a, b, c = rand_q(), rand_q(), rand_q()
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            return False, seen, {"failed": "associativity"}
        if a * (b + c) != a * b + a * c:
            return False, seen, {"failed": "distributivity"}
        if a + (-a) != ZERO or a - a != ZERO:
            return False, seen, {"failed": "additive_inverse"}
        if a != ZERO and a * (1 / a) != ONE:
            return False, seen, {"failed": "multiplicative_inverse"}
        if gcd(a.numerator, a.denominator) != 1:
            return False, seen, {"failed": "reduction"}
    return True, n_triples, {}


# -- casimir suite -----------------------------------------------------------------


def _casimir_closed_form(which: str, block: str, run: CheckRun):
    space = run.space
    ok = pi_casimir(space, which) == closed_operator(space, which)
    return ok, 1, {"block": block}


_register_table("pq", _casimir_closed_form, (
    ("casimir.op_closed_form",
     "the first-block Casimir image equals its radial closed form as an operator", "op", "x"),
    ("casimir.oq_closed_form",
     "the second-block Casimir image equals its radial closed form as an operator", "oq", "y"),
    ("casimir.g_closed_form",
     "the full Casimir image equals its radial closed form as an operator", "g", "xy"),
))


@_register(
    "casimir.sl2_relation",
    "pq",
    "the full Casimir image equals the commutant Casimir shifted by the dimension constant, "
    "and each block of size b has [L, R] = 4E + 2b and [E, R] = 2R",
)
def _casimir_sl2(run: CheckRun):
    # the block relations are what the module zero tests' label rules rest on
    space = run.space
    n = run.p + run.q
    shift = WeylOperator.identity(space).scale(Fraction(-n * n, 4) + n)
    if pi_casimir(space, "g") != sl2_casimir_op(space) + shift:
        return False, 1, {"n": n, "failed": "casimir"}
    for seen, (block, size) in enumerate((("x", run.p), ("y", run.q)), 1):
        lap, r2, e = (op(space, block) for op in (laplacian_op, rsq_op, euler_op))
        if lap.commutator(r2) != e.scale(4) + WeylOperator.identity(space).scale(2 * size):
            return False, 2 * seen, {"n": n, "failed": f"[L, R] on {block}"}
        if e.commutator(r2) != r2.scale(2):
            return False, 2 * seen + 1, {"n": n, "failed": f"[E, R] on {block}"}
    return True, 5, {"n": n}


def _eigenvalue_sweep(which: str, run: CheckRun):
    scalars = []
    for params in run.families():
        for kt in ktype_enumeration(params, run.k_max, run.l_max):
            report = eigenvalue_check(which, params, kt)
            if not report.ok:
                return False, len(scalars) + 1, {
                    "failed_sign": params.sign,
                    "failed_ktype": [kt.k, kt.l],
                }
            scalars.append(str(report.scalar))
    ok, detail = True, {"scalars": sorted(set(scalars))}
    if which == "xi" and run.m == 0:
        ok = detail["zero_at_m0"] = all(s == "0" for s in scalars)
    return ok, len(scalars), detail


_register_table("pqm", _eigenvalue_sweep, (
    ("casimir.op_eigenvalue",
     "the first-block Casimir acts on each sampled vector by its exact scalar", "op"),
    ("casimir.oq_eigenvalue",
     "the second-block Casimir acts on each sampled vector by its exact scalar", "oq"),
    ("casimir.g_eigenvalue",
     "the full Casimir acts on each sampled vector by one scalar for the whole family", "g"),
    ("casimir.xi_eigenvalue",
     "the symmetric-square element acts by its exact scalar, vanishing identically when m is zero",
     "xi"),
))


# -- module suite ------------------------------------------------------------------


@_register(
    "module.parameter_window",
    "pqm",
    "the enumerated lowest-layer types match the even-window rule exactly",
)
def _module_window(run: CheckRun):
    allowed = seen = 0
    for params in run.families():
        space = params.space
        enumerated = {
            (kt.k, kt.l) for kt in ktype_enumeration(params, run.k_max, run.l_max)
        }
        ks, ls = ktype_box(params, run.k_max, run.l_max)
        for k in ks:
            for l in ls:
                seen += 1
                kt = KType(k, l, run.p, run.q)
                d = kt.kappa_plus - kt.kappa_minus
                manual = (
                    d.denominator == 1
                    and (run.m + d) % 2 == 0
                    and run.m + d >= 0
                    and run.m - d >= 0
                )
                if manual != ((k, l) in enumerated):
                    return False, seen, {"mismatch_at": [k, l]}
                h1 = harmonic_basis(space, "x", k)[0]
                h2 = harmonic_basis(space, "y", l)[0]
                # only the window can refuse construction
                try:
                    typical_element(params, h1, h2)
                    built = True
                except ValueError:
                    built = False
                if built != manual:
                    return False, seen, {"construction_mismatch_at": [k, l]}
                allowed += manual
    return True, seen, {"allowed": allowed}


@_register(
    "module.membership",
    "pqm",
    "each sampled vector has the right weight, is annihilated, and is killed by the expected power",
)
def _module_membership(run: CheckRun):
    seen = 0
    for params in run.families():
        for kt in ktype_enumeration(params, run.k_max, run.l_max):
            seen += 1
            report = verify_membership(params, kt)
            if not report.ok:
                return False, seen, {
                    "failed_sign": params.sign,
                    "failed_ktype": [kt.k, kt.l],
                    "weight_ok": report.weight_ok,
                    "annihilated_ok": report.annihilated_ok,
                    "power_ok": report.power_ok,
                }
    return True, seen, {}


def _unguarded_pole(kappas: Sequence[int]) -> Tuple[int, Optional[str]]:
    """How many of the integer poles kappas were tried, and the first that
    psi_series accepts, as a string, or None when it refuses every one with
    PsiPoleError."""
    for tried, kappa in enumerate(kappas, 1):
        try:
            psi_series(Fraction(kappa), 4)
        except PsiPoleError:
            continue
        return tried, str(kappa)
    return len(kappas), None


def _w_ratio_failure(kappa: Fraction, series_at: Callable[[Fraction], RadialSeries]):
    """The first [delta, j, t] at which gkmodule._w_ratio(2 kappa, delta, j,
    t), the ratio the whole-series identities read, differs from
    w_j(kappa + delta) / w_t(kappa), w_j = c_j / 4^j with c_j the
    coefficients of series_at(alpha) = psi_series(alpha, ...), or is not 0
    at j = -1; None if it agrees everywhere.  delta runs over the offsets
    0, 1, 2 of the mixed action's layers, and j <= t over the stored
    indices with t >= j + delta."""

    def w(alpha: Fraction) -> List[Tuple[int, int]]:  # (numerator, denominator) of each w_j
        coeffs = sorted(series_at(alpha).coeffs.items())
        return [(c.numerator, c.denominator << 2 * j) for (j, _), c in coeffs]

    two = int(2 * kappa)
    base = w(kappa)
    for delta in (0, 1, 2):
        shifted = w(kappa + delta)
        for t, (nt, dt) in enumerate(base):
            if gkmodule._w_ratio(two, delta, -1, t):
                return [delta, -1, t]
            for j in range(t - delta + 1):
                nj, dj = shifted[j]
                if gkmodule._w_ratio(two, delta, j, t) * nt * dj != nj * dt:
                    return [delta, j, t]
    return None


@_register(
    "module.series_recurrence",
    "pqm",
    "stored radial series coefficients satisfy the two-term recurrence, and poles are refused",
)
def _module_series(run: CheckRun):
    cutoff = 24
    series_at = lru_cache(maxsize=None)(lambda alpha: psi_series(alpha, cutoff))
    kappas = set()
    for params in run.families():
        for kt in ktype_enumeration(params, run.k_max, run.l_max):
            kappas.add(params.weights(kt)[0])
    for seen, kappa in enumerate(sorted(kappas), 1):
        series = series_at(kappa)
        if any(a != b for (a, b) in series.coeffs):
            return False, seen, {"off_diagonal_terms": str(kappa)}
        coeffs = {a: c for (a, _), c in series.coeffs.items()}
        if coeffs[0] != ONE:
            return False, seen, {"bad_constant_term": str(kappa)}
        for j in range(max(coeffs)):
            rhs = coeffs[j] * (Fraction(-1) / ((j + 1) * (kappa + j)))
            if coeffs[j + 1] != rhs:
                return False, seen, {"recurrence_fails_at": j, "parameter": str(kappa)}
        failed = _w_ratio_failure(kappa, series_at)
        if failed is not None:
            return False, seen, {"w_ratio_fails_at": failed, "parameter": str(kappa)}
    tried, missing = _unguarded_pole((0, -2))
    if missing is not None:
        return False, len(kappas) + tried, {"missing_pole_guard": missing}
    return True, len(kappas) + tried, {}


@_register(
    "module.radial_uniformity",
    "pqm",
    "every harmonic product at one lowest-layer type yields a vector passing membership",
)
def _module_radial_uniformity(run: CheckRun):
    seen = 0
    for params in run.families():
        kts = [
            kt
            for kt in ktype_enumeration(params, run.k_max, run.l_max)
            if kt.k + kt.l >= 1 and kt.multiplicity >= 2
        ]
        if not kts:
            continue
        kt = kts[0]
        ok = verify_membership(params, kt).ok  # one label, so one verdict for every product
        for _ in islice(product_elements(params, kt), 8):
            seen += 1
            if not ok:
                return False, seen, {"failed_sign": params.sign, "ktype": [kt.k, kt.l]}
    return True, seen, {}


@_register(
    "module.apply_linearity",
    "pqm",
    "operator application is linear on harmonic products and moves degree by the operator's shifts",
)
def _module_apply_linearity(run: CheckRun):
    # on the first and the last harmonic product P, Q of one K-type:
    # A(P + cQ) = A(P) + c A(Q), and every degree of A(P) lies in deg P +
    # [A.min_degree_shift(), A.degree_raise()], the degree shifts that
    # WeylOperator reports
    params = run.families()[0]
    space = params.space
    kts = [
        kt
        for kt in ktype_enumeration(params, run.k_max, run.l_max)
        if kt.multiplicity >= 2
    ] or ktype_enumeration(params, run.k_max, run.l_max)
    if not kts:
        return True, 0, {}
    kt = kts[0]
    bx = harmonic_basis(space, "x", kt.k)
    by = harmonic_basis(space, "y", kt.l)
    P, Q = bx[0].mul(by[0]), bx[-1].mul(by[-1])
    c = Fraction(3, 7)
    d = P.degree()
    ops = [laplacian_op(space, "x"), rsq_op(space, "y"), sl2_triple(space)[1]]
    for seen, A in enumerate(ops, 1):
        image = A.apply(P)
        if A.apply(P + Q.scale(c)) != image + A.apply(Q).scale(c):
            return False, seen, {"failed": "linearity"}
        low, high = d + A.min_degree_shift(), d + A.degree_raise()
        if not all(low <= sum(exps) <= high for exps in image.monomials()):
            return False, seen, {"failed": "degree_shift"}
    return True, len(ops), {}


# -- paction suite -----------------------------------------------------------------


@_register(
    "paction.four_term",
    "pqm",
    "the mixed generator action matches the closed four-layer expansion for all indices",
)
def _paction_four_term(run: CheckRun):
    checked = 0
    skipped = 0
    for params in run.families():
        for f in ktype_elements(params, min(run.k_max, 2), min(run.l_max, 2)):
            kt = f.kt
            if any(layer.den == 0 for layer in params.layers(kt)):
                skipped += 1
                continue
            for i in range(1, run.p + 1):
                for j in range(1, run.q + 1):
                    checked += 1
                    if not p_action_check(f, i, j):
                        return False, checked, {
                            "failed_sign": params.sign,
                            "failed_ktype": [kt.k, kt.l],
                            "failed_index": [i, j],
                        }
    return True, checked, {"degenerate_skipped": skipped}


@_register(
    "paction.degenerate_guard",
    "pqm",
    "series poles are refused, and valid parameters never reach a vanishing layer denominator",
)
def _paction_degenerate_guard(run: CheckRun):
    seen, missing = _unguarded_pole((0, -1, -3))
    if missing is not None:
        return False, seen, {"missing_pole_guard": missing}
    for params in run.families():
        for kt in ktype_enumeration(params, 12, 12):
            seen += 1
            where = [kt.k, kt.l, params.sign]
            layers = params.layers(kt)
            if any(layer.den == 0 for layer in layers):
                return False, seen, {"vanishing_denominator_at": where}
            # the element's own series parameter and those of its four layers
            for kappa in (params.weights(kt)[0], *(layer.kappa for layer in layers)):
                if kappa.denominator == 1 and kappa <= 0:
                    return False, seen, {"series_pole_at": where}
    return True, seen, {}


# -- symsq suite -------------------------------------------------------------------


@_register(
    "symsq.q_transport",
    "pq",
    "the split Casimir tensor transports between realizations and is invariant",
)
def _symsq_q_transport(run: CheckRun):
    sig = run.sig
    qx = build_Q(sig, "X")
    qm = build_Q(sig, "M")
    if transport(qx) != qm or transport(qm) != qx:
        return False, 1, {"failed": "transport"}
    gens = generators(*sig, "X")
    for seen, g in enumerate(gens, 1):
        if not adjoint_action(LieElement.basis(g, sig), qx).is_zero():
            return False, seen, {"failed_generator": list(g)}
    return True, len(gens), {}


def _symsq_gamma2(identity: Callable[[Tuple[int, int]], bool], run: CheckRun):
    return identity(run.sig), 1, {}


_register_table("pq", _symsq_gamma2, (
    ("symsq.gamma2_q",
     "multiplying out the split Casimir tensor gives twice the Casimir element",
     gamma2_q_identity),
    ("symsq.gamma2_xi",
     "multiplying out the distinguished tensor gives the signed Casimir combination",
     gamma2_xi_identity),
))


@_register(
    "symsq.xi_transport",
    "pq",
    "the distinguished tensor built from its definition equals the closed form",
)
def _symsq_xi_transport(run: CheckRun):
    sig = run.sig
    xi = build_Xi(sig)
    if xi != xi_closed_form(sig):
        return False, 1, {"failed": "closed_form"}
    if transport(transport(xi)) != xi:
        return False, 2, {"failed": "roundtrip"}
    return True, 2, {"terms": len(xi.coeffs)}


@_register(
    "symsq.s4_vanishing",
    "pq",
    "every four-index alternating-symmetrized tensor vanishes identically",
)
def _symsq_s4(run: CheckRun):
    n = run.p + run.q
    count, all_zero = s4_vanishing(run.sig)
    if count != comb(n, 4):
        return False, count, {"count": count, "expected": comb(n, 4)}
    return all_zero, count, {}


@_register(
    "symsq.decomposition",
    "pq",
    "the symmetric square splits into four invariant pieces with the predicted dimensions",
)
def _symsq_decomposition(run: CheckRun):
    n = run.p + run.q
    rep = decompose_S2(n)
    N = n * (n - 1) // 2
    total = N * (N + 1) // 2
    expected = (
        1,
        comb(n, 4),
        n * (n + 1) // 2 - 1,
        n * (n + 1) * (n + 2) * (n - 3) // 12,
    )
    detail = {"dims": list(rep.dims), "total": rep.total_dim}
    if rep.dims != expected or rep.total_dim != total:
        return False, rep.images_checked, detail
    detail["certificates"] = dict(rep.certificates)
    return rep.all_ok(), rep.images_checked, detail


# -- garfinkle suite ---------------------------------------------------------------


@_register(
    "garfinkle.obstruction",
    "pqm",
    "a degree-two annihilator element with the required scalar exists exactly when m is zero",
)
def _garfinkle_obstruction(run: CheckRun):
    per_sign, samples = {}, 0
    for params in run.families():
        res = garfinkle_obstruction(params)
        samples += res.n_samples
        if res.exists != (run.m == 0):
            return False, samples, {
                "failed_sign": params.sign,
                "exists": res.exists,
                "expected": run.m == 0,
            }
        per_sign[str(params.sign)] = res.to_dict()
    return True, samples, {"per_sign": per_sign}


@_register(
    "garfinkle.theorem",
    "pqm",
    "the annihilator criterion matches the prediction, failing only at the obstruction step",
)
def _garfinkle_theorem(run: CheckRun):
    per_sign, samples = {}, 0
    for params in run.families():
        rep = theorem_ingredients(params)
        samples += rep.obstruction.n_samples
        if not rep.matches_prediction():
            return False, samples, {"failed_sign": params.sign, "report": rep.to_dict()}
        if run.m >= 1 and not (
            rep.casimir_step_ok and rep.s4_step_ok and not rep.obstruction.exists
        ):
            return False, samples, {"failed_sign": params.sign, "report": rep.to_dict()}
        per_sign[str(params.sign)] = rep.to_dict()
    return True, samples, {"per_sign": per_sign}


# -- execution ---------------------------------------------------------------------


# Suites whose checks instantiate module parameters and therefore need the
# parameter constraints (p, q >= 2, p + q even, 0 <= m, m + 3 <= (p+q)/2).
MODULE_SUITES = frozenset(cd.suite for cd in REGISTRY.values() if cd.scope == "pqm")


@dataclass
class CheckResult:
    """One executed check with its outcome and JSON-friendly payload."""

    name: str
    params: Dict[str, int]
    status: str  # "pass" | "fail" | "error"
    instances: Optional[int]  # None when the check raised
    detail: Dict
    elapsed: float

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "status": self.status,
            "instances": self.instances,
            "detail": self.detail,
            "elapsed": round(self.elapsed, 6),
        }


def resolve_suites(suites: Sequence[str]) -> Tuple[str, ...]:
    """The requested suites in registry order, with "all" expanded.

    Raises ValueError naming every unknown suite.
    """
    want = set(suites)
    if "all" in want:
        want = set(ALL_SUITES)
    unknown = want - set(ALL_SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(sorted(unknown))}")
    return tuple(s for s in ALL_SUITES if s in want)


def selected_checks(suites: Sequence[str]) -> List[CheckDef]:
    """Registry entries for the requested suites, sorted by name."""
    want = set(resolve_suites(suites))
    return sorted(
        (cd for cd in REGISTRY.values() if cd.suite in want),
        key=lambda cd: cd.name,
    )


def plan_jobs(
    defs: Sequence[CheckDef],
    tuples: Sequence[Tuple[int, int, Optional[int]]],
    k_max: int,
    l_max: int,
    max_degree: Optional[int] = None,
) -> List[Tuple[CheckDef, CheckRun, Dict[str, int]]]:
    """Expand each check over the parameter tuples according to its scope.

    No check takes a depth.  ``max_degree`` is kept only because the
    benchmark worker still passes ``None`` in its place; any other value
    raises ValueError.  ROADMAP item 9 drops that argument from the worker
    and then deletes the parameter.
    """
    if max_degree is not None:
        raise ValueError(f"checks take no depth; max_degree must be None, got {max_degree!r}")
    jobs: List[Tuple[CheckDef, CheckRun, Dict[str, int]]] = []
    for cd in defs:
        if cd.scope == "once":
            jobs.append((cd, CheckRun(None, None, None, k_max, l_max), {}))
        elif cd.scope == "pq":
            seen = set()
            for p, q, _ in tuples:
                if (p, q) in seen:
                    continue
                seen.add((p, q))
                run = CheckRun(p, q, None, k_max, l_max)
                jobs.append((cd, run, {"p": p, "q": q}))
        else:
            for p, q, m in tuples:
                run = CheckRun(p, q, m, k_max, l_max)
                jobs.append((cd, run, {"p": p, "q": q, "m": m}))
    return jobs


def _execute_one(job: Tuple[CheckDef, CheckRun, Dict[str, int]]) -> CheckResult:
    cd, run, params = job
    start = perf_counter()
    try:
        ok, instances, detail = cd.fn(run)
        status = "pass" if ok else "fail"
        if instances == 0:
            status, detail = "error", {"error": "no instances examined"}
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        status, instances = "error", None
        detail = {"error": f"{type(exc).__name__}: {exc}"}
    elapsed = perf_counter() - start
    return CheckResult(cd.name, params, status, instances, detail, elapsed)


def execute_jobs(
    jobs: Sequence[Tuple[CheckDef, CheckRun, Dict[str, int]]],
    threads: int = 1,
) -> List[CheckResult]:
    """Run the jobs one after another and sort the results deterministically.

    Checks run serially: they hold the GIL, so a thread pool measured no
    faster.  ``threads`` is kept only because the benchmark worker still
    passes ``threads=1``; any other value raises ValueError.  ROADMAP item 9
    drops that argument from the worker and then deletes the keyword.
    """
    if threads != 1:
        raise ValueError(f"checks run serially; threads must be 1, got {threads!r}")
    results = [_execute_one(job) for job in jobs]
    results.sort(key=lambda r: (r.name, sorted(r.params.items())))
    return results
