"""Named verification checks with a uniform runner.

Every invariant the library promises is addressable here as a dotted name,
``suite.check``, grouped into seven suites:

* ``lie``: bracket, form, and realization identities of the Lie algebra,
* ``weyl``: operator algebra, harmonic decomposition, exact arithmetic,
* ``casimir``: closed operator forms and eigenvalue checks,
* ``module``: membership and structure of the truncated module vectors,
* ``paction``: the four-layer mixed generator action and its guards,
* ``symsq``: symmetric-square tensors, transport, and decomposition,
* ``garfinkle``: the degree-two obstruction solver and the combined
  annihilator criterion.

A check is a function of a resolved parameter context returning
``(ok, validity, detail)`` where ``detail`` is a JSON-serializable dict.
Families of same-shaped checks are registered from one table each over one
shared body: the three ``casimir.*_closed_form`` checks, the four
``casimir.*_eigenvalue`` sweeps and the two ``symsq.gamma2_*`` identities.
Checks are deterministic: sampled families use fixed seeds derived from the
parameters, so two runs with the same configuration produce identical
reports apart from timing.  Scope controls fan-out: an ``once`` check runs
a single time, a ``pq`` check runs once per distinct block signature, and a
``pqm`` check runs once per full parameter tuple.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, islice, product
from math import comb, gcd
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import (
    ONE,
    ZERO,
    MultiPoly,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rsq,
)
from .linalg import SparseRREF
from .weyl import WeylOperator, euler_op, laplacian_op, rsq_op
from .liealg import (
    EnvelopingElement,
    LieElement,
    bracket,
    closed_operator,
    degree2_symbol,
    dual_sign,
    form_B,
    gamma2,
    generators,
    pbw_normal_form,
    pi_casimir,
    pi_generator,
    pi_lie,
    sl2_casimir_op,
    sl2_triple,
    straighten,
)
from .gkmodule import (
    KType,
    ModuleParams,
    PsiPoleError,
    TruncatedElement,
    apply_operator,
    default_depth,
    default_solver_depth,
    eigenvalue_check,
    garfinkle_obstruction,
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
    transport,
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

# Suites whose checks instantiate module parameters and therefore need the
# parameter constraints (p, q >= 2, p + q even, 0 <= m, m + 3 <= (p+q)/2).
MODULE_SUITES = frozenset({"casimir", "module", "paction", "garfinkle"})


@dataclass(frozen=True)
class CheckRun:
    """Resolved parameters for one execution of one check."""

    p: Optional[int]
    q: Optional[int]
    m: Optional[int]
    max_degree: Optional[int]
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

    def depth(self) -> int:
        """Working truncation degree for module-level checks."""
        if self.max_degree is not None:
            return self.max_degree
        return default_depth(self.m, self.k_max + self.l_max)

    def solver_depth(self) -> int:
        """Working truncation degree for the obstruction solver."""
        if self.max_degree is not None:
            return self.max_degree
        return default_solver_depth(self.m)


CheckFn = Callable[[CheckRun], Tuple[bool, Optional[int], Dict]]


@dataclass(frozen=True)
class CheckDef:
    name: str
    suite: str
    scope: str  # "once" | "pq" | "pqm"
    description: str
    fn: CheckFn


REGISTRY: Dict[str, CheckDef] = {}


def _register(name: str, suite: str, scope: str, description: str):
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


def _register_table(suite: str, scope: str, body, rows) -> None:
    """Register one check per row ``(name, description, *args)`` of a family
    of same-shaped checks, each running ``body(*args, run)``."""
    for name, description, *args in rows:
        _register(name, suite, scope, description)(partial(body, *args))


# -- lie suite --------------------------------------------------------------------


@_register(
    "lie.homomorphism",
    "lie",
    "pq",
    "operator realization respects every bracket of canonical generator pairs",
)
def _lie_homomorphism(run: CheckRun):
    space = run.space
    sig = run.sig
    gens = generators(*sig, "M")
    basis = [LieElement.basis(g, sig) for g in gens]
    images = [pi_generator(g, space) for g in gens]
    pairs = 0
    for ia, ib in combinations(range(len(gens)), 2):
        lhs = images[ia].commutator(images[ib])
        if lhs != pi_lie(bracket(basis[ia], basis[ib])):
            return False, None, {"failed_pair": [list(gens[ia]), list(gens[ib])]}
        pairs += 1
    return True, None, {"pairs_checked": pairs}


@_register(
    "lie.commutant",
    "lie",
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
            if not op.commutator(z).is_zero():
                return False, None, {"failed_generator": list(g)}
            checked += 1
    return True, None, {"commutators_checked": checked}


@_register(
    "lie.duality",
    "lie",
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
            val = form_B(ea, eb) * dual_sign(b, run.p)
            expect = ONE if a == b else ZERO
            if val != expect:
                return False, None, {"failed_pair": [list(a), list(b)]}
            checked += 1
    return True, None, {"pairs_checked": checked}


@_register(
    "lie.jacobi",
    "lie",
    "pq",
    "the bracket satisfies the Jacobi identity on a fixed-seed family of generator triples",
)
def _lie_jacobi(run: CheckRun):
    sig = run.sig
    gens = generators(*sig, "X")
    basis = {g: LieElement.basis(g, sig) for g in gens}
    rng = random.Random(1000 * run.p + run.q)
    n = len(gens)
    # distinct triples, drawn without replacement as base-n indices
    picks = rng.sample(range(n**3), min(150, n**3))
    for idx in picks:
        a, b, c = (basis[gens[idx // n**e % n]] for e in range(3))
        jac = (
            bracket(a, bracket(b, c))
            + bracket(b, bracket(c, a))
            + bracket(c, bracket(a, b))
        )
        if not jac.is_zero():
            return False, None, {"failed": True}
    return True, None, {"triples_checked": len(picks)}


@_register(
    "lie.pbw_confluence",
    "lie",
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
    for idx in picks:
        length = 2
        while idx >= n**length:
            idx -= n**length
            length += 1
        word = tuple(gens[idx // n**e % n] for e in range(length))
        u = EnvelopingElement(sig, "X", {word: ONE})
        nf = pbw_normal_form(u)
        if nf != straighten(u, last=True):
            return False, None, {"failed_word_length": length}
        if pbw_normal_form(nf) != nf:
            return False, None, {"not_idempotent": True}
    return True, None, {"words_checked": len(picks)}


@_register(
    "lie.symbol_roundtrip",
    "lie",
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
    for t in tensors:
        if degree2_symbol(gamma2(t)) != dict(t.coeffs):
            return False, None, {"failed_tensor_terms": len(t.coeffs)}
    return True, None, {"tensors_checked": len(tensors)}


# -- weyl suite --------------------------------------------------------------------


@_register(
    "weyl.canonical_commutation",
    "weyl",
    "pq",
    "derivative and multiplication operators satisfy the canonical commutation relations",
)
def _weyl_ccr(run: CheckRun):
    space = run.space
    nv = space.nvars
    ident = WeylOperator.identity(space)
    checked = 0
    for i in range(nv):
        di = WeylOperator.diff(space, i)
        vi = WeylOperator.var(space, i)
        for j in range(nv):
            dj = WeylOperator.diff(space, j)
            vj = WeylOperator.var(space, j)
            comm = di.commutator(vj)
            expect = ident if i == j else WeylOperator.zero(space)
            if comm != expect:
                return False, None, {"failed_pair": [i, j]}
            if not di.commutator(dj).is_zero() or not vi.commutator(vj).is_zero():
                return False, None, {"failed_pair": [i, j]}
            checked += 1
    return True, None, {"pairs_checked": checked}


def _op_family(space: VariableSpace) -> List[WeylOperator]:
    mixed = next(
        g for g in generators(space.p, space.q, "M") if g.i <= space.p < g.j
    )
    return [
        euler_op(space, "x"),
        laplacian_op(space, "x"),
        rsq_op(space, "y"),
        WeylOperator.diff(space, 0),
        WeylOperator.var(space, space.nvars - 1),
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
    "weyl",
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
                if AB.apply(f) != A.apply(Bf):
                    return False, None, {"failed": True}
                checked += 1
    return True, None, {"applications_checked": checked}


@_register(
    "weyl.commutator_jacobi",
    "weyl",
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
    checked = 0
    for a, b, c in product(idx, repeat=3):
        jac = outer[a, b, c] + outer[b, c, a] + outer[c, a, b]
        if not jac.is_zero():
            return False, None, {"failed": True}
        checked += 1
    return True, None, {"triples_checked": checked}


@_register(
    "weyl.degree_bookkeeping",
    "weyl",
    "pq",
    "composition never raises polynomial degree or derivative order beyond the factor sums",
)
def _weyl_degree(run: CheckRun):
    space = run.space
    ops = _op_family(space)
    checked = 0
    for A in ops:
        for B in ops:
            C = A.compose(B)
            if C.is_zero():
                continue
            if C.degree_raise() > A.degree_raise() + B.degree_raise():
                return False, None, {"failed": "degree_raise"}
            if C.max_derivative_order() > A.max_derivative_order() + B.max_derivative_order():
                return False, None, {"failed": "derivative_order"}
            checked += 1
    return True, None, {"compositions_checked": checked}


@_register(
    "weyl.harmonic_dimension",
    "weyl",
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
            if len(basis) != harmonic_dim(nblk, k):
                return False, None, {"failed_block": block, "degree": k}
            rr = SparseRREF()
            for h in basis:
                if rr.add_row(h._terms)[0] != "pivot":
                    return False, None, {
                        "failed_block": block,
                        "degree": k,
                        "dependent_basis": True,
                    }
                if not laplacian(h, block).is_zero():
                    return False, None, {"failed_block": block, "degree": k}
            sizes[f"{block}{k}"] = len(basis)
    return True, None, {"basis_sizes": sizes}


@_register(
    "weyl.dagger_harmonic",
    "weyl",
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
                if not laplacian(Pd, block).is_zero():
                    return False, None, {"failed_block": block, "degree": k}
                if Pd != P:
                    corrected += 1
                checked += 1
    return True, None, {"products_checked": checked, "corrections_applied": corrected}


@_register(
    "weyl.euler_scalar",
    "weyl",
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
            if euler(h, block) != h.scale(k):
                return False, None, {"failed_block": block, "degree": k}
            f = h.mul(rsq(space, block))
            if euler(f, block) != f.scale(k + 2):
                return False, None, {"failed_block": block, "degree": k}
            checked += 2
    return True, None, {"polynomials_checked": checked}


@_register(
    "weyl.field_axioms",
    "weyl",
    "once",
    "exact coefficient arithmetic satisfies the field axioms on a fixed-seed sample",
)
def _weyl_field_axioms(run: CheckRun):
    rng = random.Random(20240819)

    def rand_q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    n_triples = 40
    for _ in range(n_triples):
        a, b, c = rand_q(), rand_q(), rand_q()
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            return False, None, {"failed": "associativity"}
        if a * (b + c) != a * b + a * c:
            return False, None, {"failed": "distributivity"}
        if a + (-a) != ZERO or a - a != ZERO:
            return False, None, {"failed": "additive_inverse"}
        if a != ZERO and a * (1 / a) != ONE:
            return False, None, {"failed": "multiplicative_inverse"}
        if gcd(a.numerator, a.denominator) != 1:
            return False, None, {"failed": "reduction"}
    return True, None, {"triples_checked": n_triples}


# -- casimir suite -----------------------------------------------------------------


def _casimir_closed_form(which: str, block: str, run: CheckRun):
    space = run.space
    ok = pi_casimir(space, which) == closed_operator(space, which)
    return ok, None, {"block": block}


_register_table("casimir", "pq", _casimir_closed_form, (
    ("casimir.op_closed_form",
     "the first-block Casimir image equals its radial closed form as an operator", "op", "x"),
    ("casimir.oq_closed_form",
     "the second-block Casimir image equals its radial closed form as an operator", "oq", "y"),
    ("casimir.g_closed_form",
     "the full Casimir image equals its radial closed form as an operator", "g", "xy"),
))


@_register(
    "casimir.sl2_relation",
    "casimir",
    "pq",
    "the full Casimir image equals the commutant Casimir shifted by the dimension constant",
)
def _casimir_sl2(run: CheckRun):
    space = run.space
    n = run.p + run.q
    shift = WeylOperator.identity(space).scale(Fraction(-n * n, 4) + n)
    ok = pi_casimir(space, "g") == sl2_casimir_op(space) + shift
    return ok, None, {"n": n}


def _eigenvalue_sweep(which: str, run: CheckRun):
    validities = []
    scalars = []
    for params in run.families():
        for f in ktype_elements(params, run.k_max, run.l_max, run.depth()):
            report = eigenvalue_check(which, f)
            if not report.ok:
                return False, report.validity, {
                    "failed_sign": params.sign,
                    "failed_ktype": [f.kt.k, f.kt.l],
                }
            scalars.append(str(report.scalar))
            validities.append(report.validity)
    min_validity = min(validities, default=None)
    detail = {"checked": len(validities), "scalars": sorted(set(scalars))}
    if not validities:
        return False, None, detail
    if which == "xi" and run.m == 0:
        detail["zero_at_m0"] = all(s == "0" for s in scalars)
        if not detail["zero_at_m0"]:
            return False, min_validity, detail
    return True, min_validity, detail


_register_table("casimir", "pqm", _eigenvalue_sweep, (
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
    "module",
    "pqm",
    "the enumerated lowest-layer types match the even-window rule exactly",
)
def _module_window(run: CheckRun):
    allowed_count = 0
    rejected_count = 0
    for params in run.families():
        space = params.space
        enumerated = {
            (kt.k, kt.l) for kt in ktype_enumeration(params, run.k_max, run.l_max)
        }
        for k in range(run.k_max + 1):
            for l in range(run.l_max + 1):
                kt = KType(k, l, run.p, run.q)
                d = kt.kappa_plus - kt.kappa_minus
                manual = (
                    d.denominator == 1
                    and (run.m + d) % 2 == 0
                    and run.m + d >= 0
                    and run.m - d >= 0
                )
                if manual != ((k, l) in enumerated):
                    return False, None, {"mismatch_at": [k, l]}
                h1 = harmonic_basis(space, "x", k)[0]
                h2 = harmonic_basis(space, "y", l)[0]
                # the base degree k + l + 2 mu is at most k + l + 2m, so only
                # the window can refuse construction at that depth
                try:
                    typical_element(params, h1, h2, k + l + 2 * run.m)
                    built = True
                except ValueError:
                    built = False
                if built != manual:
                    return False, None, {"construction_mismatch_at": [k, l]}
                if manual:
                    allowed_count += 1
                else:
                    rejected_count += 1
    return True, None, {"allowed": allowed_count, "rejected": rejected_count}


@_register(
    "module.membership",
    "module",
    "pqm",
    "each sampled vector has the right weight, is annihilated, and is killed by the expected power",
)
def _module_membership(run: CheckRun):
    validities = []
    for params in run.families():
        for f in ktype_elements(params, run.k_max, run.l_max, run.depth()):
            report = verify_membership(f)
            if not report.ok:
                return False, report.validity, {
                    "failed_sign": params.sign,
                    "failed_ktype": [f.kt.k, f.kt.l],
                    "weight_ok": report.weight_ok,
                    "annihilated_ok": report.annihilated_ok,
                    "power_ok": report.power_ok,
                }
            validities.append(report.validity)
    n = len(validities)
    return n > 0, min(validities, default=None), {"vectors_checked": n}


def _unguarded_pole(kappas: Sequence[int]) -> Optional[str]:
    """The first of the integer poles kappas that psi_series accepts, as a
    string, or None when it refuses every one with PsiPoleError."""
    for kappa in kappas:
        try:
            psi_series(Fraction(kappa), 4)
        except PsiPoleError:
            continue
        return str(kappa)
    return None


@_register(
    "module.series_recurrence",
    "module",
    "pqm",
    "stored radial series coefficients satisfy the two-term recurrence, and poles are refused",
)
def _module_series(run: CheckRun):
    cutoff = 24
    kappas = set()
    for params in run.families():
        for kt in ktype_enumeration(params, run.k_max, run.l_max):
            kappas.add(params.weights(kt)[0])
    for kappa in sorted(kappas):
        series = psi_series(kappa, cutoff)
        if any(a != b for (a, b) in series.coeffs):
            return False, None, {"off_diagonal_terms": str(kappa)}
        coeffs = {a: c for (a, _), c in series.coeffs.items()}
        if coeffs[0] != ONE:
            return False, None, {"bad_constant_term": str(kappa)}
        for j in range(max(coeffs)):
            rhs = coeffs[j] * (Fraction(-1) / ((j + 1) * (kappa + j)))
            if coeffs[j + 1] != rhs:
                return False, None, {"recurrence_fails_at": j, "parameter": str(kappa)}
    poles = (0, -2)
    missing = _unguarded_pole(poles)
    if missing is not None:
        return False, None, {"missing_pole_guard": missing}
    return True, None, {"parameters_checked": len(kappas), "poles_refused": len(poles)}


@_register(
    "module.radial_uniformity",
    "module",
    "pqm",
    "every harmonic product at one lowest-layer type yields a vector passing membership",
)
def _module_radial_uniformity(run: CheckRun):
    validities = []
    for params in run.families():
        kts = [
            kt
            for kt in ktype_enumeration(params, run.k_max, run.l_max)
            if kt.k + kt.l >= 1 and kt.multiplicity >= 2
        ]
        if not kts:
            continue
        for f in islice(product_elements(params, kts[0], run.depth()), 8):
            report = verify_membership(f)
            if not report.ok:
                return False, report.validity, {
                    "failed_sign": params.sign,
                    "ktype": [f.kt.k, f.kt.l],
                }
            validities.append(report.validity)
    n = len(validities)
    return n > 0, min(validities, default=None), {"products_checked": n}


@_register(
    "module.apply_linearity",
    "module",
    "pqm",
    "truncated application is linear and agrees with direct application on plain polynomials",
)
def _module_apply_linearity(run: CheckRun):
    params = run.families()[0]
    space = params.space
    D = run.depth()
    kts = [
        kt
        for kt in ktype_enumeration(params, run.k_max, run.l_max)
        if kt.multiplicity >= 2
    ]
    if not kts:
        kts = ktype_enumeration(params, run.k_max, run.l_max)
    if not kts:
        return False, None, {"failed": "no_ktype"}
    kt = kts[0]
    bx = harmonic_basis(space, "x", kt.k)
    by = harmonic_basis(space, "y", kt.l)
    f = typical_element(params, bx[0], by[0], D)
    g = typical_element(params, bx[-1], by[-1], D)
    c = Fraction(3, 7)
    ops = [laplacian_op(space, "x"), rsq_op(space, "y"), sl2_triple(space)[1]]
    for A in ops:
        lhs = apply_operator(A, f + g.scale(c))
        rhs = apply_operator(A, f) + apply_operator(A, g).scale(c)
        if not lhs.agrees_with(rhs):
            return False, lhs.validity, {"failed": "linearity"}
    P = bx[0].mul(by[0])
    for A in ops:
        wrapped = apply_operator(A, TruncatedElement(P, D))
        if wrapped.expansion != A.apply(P):
            return False, wrapped.validity, {"failed": "direct_agreement"}
        if wrapped.validity != D + A.min_degree_shift():
            return False, wrapped.validity, {"failed": "validity_bookkeeping"}
    return True, D - 2, {"operators_checked": len(ops)}


# -- paction suite -----------------------------------------------------------------


@_register(
    "paction.four_term",
    "paction",
    "pqm",
    "the mixed generator action matches the closed four-layer expansion for all indices",
)
def _paction_four_term(run: CheckRun):
    checked = 0
    skipped = 0
    D = run.depth()
    for params in run.families():
        for f in ktype_elements(params, min(run.k_max, 2), min(run.l_max, 2), D):
            kt = f.kt
            if any(layer.den == 0 for layer in params.layers(kt)):
                skipped += 1
                continue
            for i in range(1, run.p + 1):
                for j in range(1, run.q + 1):
                    if not p_action_check(f, i, j):
                        return False, D - 2, {
                            "failed_sign": params.sign,
                            "failed_ktype": [kt.k, kt.l],
                            "failed_index": [i, j],
                        }
                    checked += 1
    return checked > 0, D - 2, {"identities_checked": checked, "degenerate_skipped": skipped}


@_register(
    "paction.degenerate_guard",
    "paction",
    "pqm",
    "series poles are refused, and valid parameters never reach a vanishing layer denominator",
)
def _paction_degenerate_guard(run: CheckRun):
    poles = (0, -1, -3)
    missing = _unguarded_pole(poles)
    if missing is not None:
        return False, None, {"missing_pole_guard": missing}
    scanned = 0
    for params in run.families():
        for kt in ktype_enumeration(params, 12, 12):
            where = [kt.k, kt.l, params.sign]
            layers = params.layers(kt)
            if any(layer.den == 0 for layer in layers):
                return False, None, {"vanishing_denominator_at": where}
            # the element's own series parameter and those of its four layers
            for kappa in (params.weights(kt)[0], *(layer.kappa for layer in layers)):
                if kappa.denominator == 1 and kappa <= 0:
                    return False, None, {"series_pole_at": where}
            scanned += 1
    return True, None, {"poles_refused": len(poles), "types_scanned": scanned}


# -- symsq suite -------------------------------------------------------------------


@_register(
    "symsq.q_transport",
    "symsq",
    "pq",
    "the split Casimir tensor transports between realizations and is invariant",
)
def _symsq_q_transport(run: CheckRun):
    sig = run.sig
    qx = build_Q(sig, "X")
    qm = build_Q(sig, "M")
    if transport(qx) != qm or transport(qm) != qx:
        return False, None, {"failed": "transport"}
    gens = generators(*sig, "X")
    for g in gens:
        if not adjoint_action(LieElement.basis(g, sig), qx).is_zero():
            return False, None, {"failed_generator": list(g)}
    return True, None, {"generators_checked": len(gens)}


def _symsq_gamma2(identity: Callable[[Tuple[int, int]], bool], run: CheckRun):
    return identity(run.sig), None, {}


_register_table("symsq", "pq", _symsq_gamma2, (
    ("symsq.gamma2_q",
     "multiplying out the split Casimir tensor gives twice the Casimir element",
     gamma2_q_identity),
    ("symsq.gamma2_xi",
     "multiplying out the distinguished tensor gives the signed Casimir combination",
     gamma2_xi_identity),
))


@_register(
    "symsq.xi_transport",
    "symsq",
    "pq",
    "the distinguished tensor built from its definition equals the closed form",
)
def _symsq_xi_transport(run: CheckRun):
    sig = run.sig
    xi = build_Xi(sig)
    if xi != xi_closed_form(sig):
        return False, None, {"failed": "closed_form"}
    if transport(transport(xi)) != xi:
        return False, None, {"failed": "roundtrip"}
    return True, None, {"terms": len(xi.coeffs)}


@_register(
    "symsq.s4_vanishing",
    "symsq",
    "pq",
    "every four-index alternating-symmetrized tensor vanishes identically",
)
def _symsq_s4(run: CheckRun):
    n = run.p + run.q
    count, all_zero = s4_vanishing(run.sig)
    if count != comb(n, 4):
        return False, None, {"count": count, "expected": comb(n, 4)}
    return all_zero, None, {"tensors_checked": count}


@_register(
    "symsq.decomposition",
    "symsq",
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
    if rep.dims != expected or rep.total_dim != total:
        return False, None, {"dims": list(rep.dims), "total": rep.total_dim}
    ok = rep.all_ok()
    return ok, None, {
        "dims": list(rep.dims),
        "total": rep.total_dim,
        "images_checked": rep.images_checked,
        "certificates": dict(rep.certificates),
    }


# -- garfinkle suite ---------------------------------------------------------------


@_register(
    "garfinkle.obstruction",
    "garfinkle",
    "pqm",
    "a degree-two annihilator element with the required scalar exists exactly when m is zero",
)
def _garfinkle_obstruction(run: CheckRun):
    per_sign = {}
    min_validity = None
    for params in run.families():
        res = garfinkle_obstruction(params, run.solver_depth())
        if res.exists != (run.m == 0):
            return False, res.validity, {
                "failed_sign": params.sign,
                "exists": res.exists,
                "expected": run.m == 0,
            }
        per_sign[str(params.sign)] = res.to_dict()
        min_validity = (
            res.validity if min_validity is None else min(min_validity, res.validity)
        )
    return True, min_validity, {"per_sign": per_sign}


@_register(
    "garfinkle.theorem",
    "garfinkle",
    "pqm",
    "the annihilator criterion matches the prediction, failing only at the obstruction step",
)
def _garfinkle_theorem(run: CheckRun):
    per_sign = {}
    for params in run.families():
        rep = theorem_ingredients(params, D=run.max_degree)
        if not rep.matches_prediction():
            return False, None, {"failed_sign": params.sign, "report": rep.to_dict()}
        if run.m >= 1 and not (
            rep.casimir_step_ok and rep.s4_step_ok and not rep.obstruction.exists
        ):
            return False, None, {"failed_sign": params.sign, "report": rep.to_dict()}
        per_sign[str(params.sign)] = rep.to_dict()
    return True, None, {"per_sign": per_sign}


# -- execution ---------------------------------------------------------------------


@dataclass
class CheckResult:
    """One executed check with its outcome and JSON-friendly payload."""

    name: str
    params: Dict[str, int]
    status: str  # "pass" | "fail" | "error"
    validity: Optional[int]
    detail: Dict
    elapsed: float

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "params": dict(self.params),
            "status": self.status,
            "validity": self.validity,
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
    max_degree: Optional[int],
) -> List[Tuple[CheckDef, CheckRun, Dict[str, int]]]:
    """Expand each check over the parameter tuples according to its scope."""
    jobs: List[Tuple[CheckDef, CheckRun, Dict[str, int]]] = []
    for cd in defs:
        if cd.scope == "once":
            jobs.append((cd, CheckRun(None, None, None, max_degree, k_max, l_max), {}))
        elif cd.scope == "pq":
            seen = set()
            for p, q, _ in tuples:
                if (p, q) in seen:
                    continue
                seen.add((p, q))
                run = CheckRun(p, q, None, max_degree, k_max, l_max)
                jobs.append((cd, run, {"p": p, "q": q}))
        else:
            for p, q, m in tuples:
                run = CheckRun(p, q, m, max_degree, k_max, l_max)
                jobs.append((cd, run, {"p": p, "q": q, "m": m}))
    return jobs


def _execute_one(job: Tuple[CheckDef, CheckRun, Dict[str, int]]) -> CheckResult:
    cd, run, params = job
    start = perf_counter()
    try:
        ok, validity, detail = cd.fn(run)
        status = "pass" if ok else "fail"
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        status, validity = "error", None
        detail = {"error": f"{type(exc).__name__}: {exc}"}
    return CheckResult(cd.name, params, status, validity, detail, perf_counter() - start)


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
