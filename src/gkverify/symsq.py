"""Symmetric squares of the orthogonal Lie algebras and the annihilator
dichotomy built on top of them.

A degree-2 symmetric tensor is a liealg.Combination over ordered pairs of
canonical generators, with the symmetry c(a, b) = c(b, a) enforced at
construction.  Builders write each displayed summand into its ordered
slot, so double sums over both orders land symmetrically on their own.  An
ordered pair is a generator word of length two, so liealg.transport, which
this module re-exports, changes a tensor's flavor, liealg.pi_env gives its
operator image, and liealg.gamma2 reads it as an enveloping element as is.

The coefficient dot product over ordered pairs realizes the invariant trace
pairing in the M flavor, because the invariant form takes value -1 on every
canonical generator and pairs distinct generators to zero (the two -1
factors square away).  Written over unordered coordinates the same pairing
carries weight 2 off the diagonal and weight 1 on it, which is how the
linear algebra below uses it.

The four-piece decomposition of the symmetric square realizes the first
three pieces by explicit spanning tensors (the invariant tensor, the
six-term alternating tensors, the traceless one-index-contracted family)
and the last piece as the exact orthocomplement of the first three.  Its
invariance certificate is a chain of finite checks rather than one large
membership sweep: the form is diagonal on generators, the form is
ad-invariant on all generator triples, each explicit family is invariant by
exact membership of every adjoint image, and the orthocomplement of an
invariant subspace under an invariant definite pairing is invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple, Union

from .gkmodule import (
    ModuleParams,
    ObstructionResult,
    default_depth,
    default_samples,
    default_solver_depth,
    eigenvalue_check,
    garfinkle_obstruction,
)
from .liealg import (
    Combination,
    Generator,
    LieElement,
    _bracket_table,
    canonical,
    casimir,
    dual_sign,
    form_B,
    gamma2,
    generators,
    pbw_normal_form,
    pi_env,
    sparse_sum,
    transport,
)
from .linalg import SparseRREF, rref_nullspace
from .poly import ONE, ZERO, VariableSpace

Sig = Tuple[int, int]
PairKey = Tuple[Generator, Generator]


def _as_sig(sig: Union[int, Sig]) -> Sig:
    """Accept a bare size n (one definite block) or a genuine (p, q) split."""
    if isinstance(sig, int):
        return (sig, 0)
    return sig


class SymSquareTensor(Combination):
    """Symmetric coefficient combination of ordered generator pairs."""

    __slots__ = ()

    def __init__(self, sig: Sig, flavor: str, coeffs: Dict[PairKey, Fraction]) -> None:
        super().__init__(sig, flavor, coeffs)
        for (a, b), c in self.coeffs.items():
            if a.flavor != flavor or b.flavor != flavor:
                raise ValueError("pair flavor does not match the tensor flavor")
            if a != b and self.coeffs.get((b, a), ZERO) != c:
                raise ValueError("tensor coefficients are not symmetric")


def pairing(s: SymSquareTensor, t: SymSquareTensor) -> Fraction:
    """Coefficient dot product over ordered pairs (the trace pairing, M flavor)."""
    s._check(t)
    a, b = (s.coeffs, t.coeffs) if len(s.coeffs) <= len(t.coeffs) else (t.coeffs, s.coeffs)
    acc = ZERO
    for k, v in a.items():
        w = b.get(k)
        if w is not None:
            acc = acc + v * w
    return acc


# -- the named tensors -----------------------------------------------------------------


def build_Q(sig: Union[int, Sig], flavor: str = "X") -> SymSquareTensor:
    """The invariant tensor dual to the form.

    In the X flavor the double sum over ordered index pairs collapses to
    twice the dual-signed diagonal over canonical generators; in the M
    flavor it collapses to -2 on every diagonal slot.
    """
    p, q = _as_sig(sig)
    coeffs: Dict[PairKey, Fraction] = {}
    if flavor == "X":
        for g in generators(p, q, "X"):
            coeffs[(g, g)] = Fraction(2 * dual_sign(g, p))
    elif flavor == "M":
        for g in generators(p, q, "M"):
            coeffs[(g, g)] = Fraction(-2)
    else:
        raise ValueError("flavor must be 'X' or 'M'")
    return SymSquareTensor((p, q), flavor, coeffs)


def build_S4(sig: Union[int, Sig], i: int, j: int, k: int, l: int) -> SymSquareTensor:
    """Six-term alternating tensor attached to four strictly increasing indices."""
    p, q = _as_sig(sig)
    n = p + q
    if not (1 <= i < j < k < l <= n):
        raise ValueError("need 1 <= i < j < k < l <= n")
    half = Fraction(1, 2)
    coeffs: Dict[PairKey, Fraction] = {}
    for (a, b), (c, d), sgn in (
        ((i, j), (k, l), 1),
        ((i, k), (j, l), -1),
        ((i, l), (j, k), 1),
    ):
        g1 = Generator(a, b, "M")
        g2 = Generator(c, d, "M")
        v = half * sgn
        coeffs[(g1, g2)] = coeffs.get((g1, g2), ZERO) + v
        coeffs[(g2, g1)] = coeffs.get((g2, g1), ZERO) + v
    return SymSquareTensor((p, q), "M", coeffs)


def build_S2(sig: Union[int, Sig], i: int, j: int) -> SymSquareTensor:
    """One-index contraction with its trace part removed on the diagonal."""
    p, q = _as_sig(sig)
    n = p + q
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range")
    half = Fraction(1, 2)

    def terms():
        for k in range(1, n + 1):
            if k == i or k == j:
                continue
            gik, s1 = canonical(i, k, "M")
            gkj, s2 = canonical(k, j, "M")
            v = half * (s1 * s2)
            yield (gik, gkj), v
            yield (gkj, gik), v

    tensor = SymSquareTensor((p, q), "M", sparse_sum(terms()))
    if i == j:
        tensor = tensor - build_Q((p, q), "M").scale(Fraction(1, n))
    return tensor


def xi_closed_form(sig: Sig) -> SymSquareTensor:
    """Block-diagonal form of the distinguished tensor.

    Minus one on each first-block diagonal slot, plus one on each
    second-block slot, plus the invariant tensor scaled by -(p - q)/(2n).
    """
    p, q = sig
    coeffs: Dict[PairKey, Fraction] = {}
    for g in generators(p, q, "X"):
        if g.j <= p:
            coeffs[(g, g)] = -ONE
        elif g.i > p:
            coeffs[(g, g)] = ONE
    base = SymSquareTensor(sig, "X", coeffs)
    return base + build_Q(sig, "X").scale(Fraction(-(p - q), 2 * (p + q)))


def build_Xi(sig: Sig) -> SymSquareTensor:
    """Signature-weighted half sum of diagonal contractions, transported.

    Built from the definition (half the weighted sum of S2 diagonal tensors
    in the M flavor, pulled back through the transport) and cross-checked
    against the closed block-diagonal form before returning.
    """
    p, q = sig
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    acc = SymSquareTensor.zero(sig, "M")
    for i in range(1, p + 1):
        acc = acc + build_S2(sig, i, i)
    for i in range(p + 1, p + q + 1):
        acc = acc - build_S2(sig, i, i)
    xi = transport(acc.scale(Fraction(1, 2)))
    closed = xi_closed_form(sig)
    if xi != closed:
        raise ArithmeticError("transported definition disagrees with the closed form")
    return xi


# -- actions ---------------------------------------------------------------------------


def adjoint_action(x: LieElement, t: SymSquareTensor) -> SymSquareTensor:
    """Derivation action, bracket on the left slot plus bracket on the right."""
    if x.sig != t.sig or x.flavor != t.flavor:
        raise ValueError("mismatched signature or flavor")
    table = _bracket_table(t.sig, t.flavor)

    def terms():
        for (a, b), c in t.coeffs.items():
            for gx, cx in x.coeffs.items():
                f = cx * c
                for g1, s in table[(gx, a)].items():
                    yield (g1, b), f * s
                for g2, s in table[(gx, b)].items():
                    yield (a, g2), f * s

    return SymSquareTensor(t.sig, t.flavor, sparse_sum(terms()))


# -- identities feeding the quadratic element ---------------------------------------------


def gamma2_q_identity(sig: Sig) -> bool:
    """Multiplication of the invariant tensor equals twice the full Casimir."""
    lhs = pbw_normal_form(gamma2(build_Q(sig, "X")))
    rhs = pbw_normal_form(casimir("g", sig).scale(2))
    return lhs == rhs


def gamma2_xi_identity(sig: Sig) -> bool:
    """Multiplication of the distinguished tensor equals the Casimir combination."""
    p, q = sig
    lhs = pbw_normal_form(gamma2(build_Xi(sig)))
    rhs = (
        casimir("op", sig)
        - casimir("oq", sig)
        - casimir("g", sig).scale(Fraction(p - q, p + q))
    )
    return lhs == pbw_normal_form(rhs)


def s4_vanishing(sig: Sig) -> Tuple[int, bool]:
    """Count the alternating tensors and test that every operator image is zero."""
    p, q = sig
    n = p + q
    space = VariableSpace(p, q)
    count = 0
    all_zero = True
    for i, j, k, l in combinations(range(1, n + 1), 4):
        op = pi_env(build_S4((p, q), i, j, k, l), space)
        count += 1
        if not op.is_zero():
            all_zero = False
    return count, all_zero


# -- the four-piece decomposition -----------------------------------------------------------


@dataclass(frozen=True)
class InvariantSubspace:
    """One piece of the decomposition with an explicit exact basis."""

    label: str
    n: int
    basis: Tuple[SymSquareTensor, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class DecompositionReport:
    """Dimension audit and invariance certificates for the four pieces."""

    n: int
    subspaces: List[InvariantSubspace]
    dims: Tuple[int, int, int, int]
    total_dim: int
    direct_sum_ok: bool
    invariance_ok: Dict[str, bool]
    certificates: Dict[str, bool]
    images_checked: int

    def all_ok(self) -> bool:
        return (
            self.direct_sum_ok
            and all(self.invariance_ok.values())
            and all(self.certificates.values())
        )


def _pair_coord(a: Generator, b: Generator) -> int:
    """Sortable integer key for an unordered pair of canonical generators."""
    if (b.i, b.j) < (a.i, a.j):
        a, b = b, a
    return ((a.i * 256 + a.j) * 256 + b.i) * 256 + b.j


def _coords(t: SymSquareTensor) -> Dict[int, Fraction]:
    """Unordered-coordinate vector of a symmetric tensor."""
    out: Dict[int, Fraction] = {}
    for (a, b), c in t.coeffs.items():
        if (a.i, a.j) <= (b.i, b.j):
            out[_pair_coord(a, b)] = c
    return out


def _weighted_coords(t: SymSquareTensor) -> Dict[int, Fraction]:
    """Unordered coordinates with the pairing weights (2 off the diagonal)."""
    out: Dict[int, Fraction] = {}
    for (a, b), c in t.coeffs.items():
        if (a.i, a.j) < (b.i, b.j):
            out[_pair_coord(a, b)] = c + c
        elif a == b:
            out[_pair_coord(a, b)] = c
    return out


def _form_diagonal_certificate(n: int) -> bool:
    """The invariant form takes -1 on each canonical generator, 0 across pairs."""
    sig = (n, 0)
    gens = generators(n, 0, "M")
    for a in gens:
        ea = LieElement.basis(a, sig)
        for b in gens:
            want = -ONE if a == b else ZERO
            if form_B(ea, LieElement.basis(b, sig)) != want:
                return False
    return True


def _form_ad_invariance_certificate(n: int) -> bool:
    """Bracket skewness of the form on all generator triples.

    With the form diagonal, the form value against a generator reads off a
    single bracket coefficient, so the skewness condition becomes a pair of
    structure-constant lookups per triple.
    """
    table = _bracket_table((n, 0), "M")
    gens = generators(n, 0, "M")
    for x in gens:
        for a in gens:
            row_xa = table[(x, a)]
            for b in gens:
                if row_xa.get(b, ZERO) + table[(x, b)].get(a, ZERO) != ZERO:
                    return False
    return True


def decompose_S2(n: int) -> DecompositionReport:
    """Split the symmetric square into its four exact invariant pieces.

    The first three pieces come with explicit spanning tensors whose joint
    independence is certified by an exact rank computation; the last piece
    is the orthocomplement of their span under the trace pairing, extracted
    as an exact nullspace.  Because the pairing weights are positive the
    pairing is definite on these real tensors, so the complement meets the
    span trivially and the dimensions add up by rank plus nullity.

    The report carries the full invariance certificate chain described in
    the module docstring.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    sig = (n, 0)
    gens = generators(n, 0, "M")
    big_n = len(gens)
    total_dim = big_n * (big_n + 1) // 2

    q_hat = build_Q(n, "M")
    s4_list = [
        build_S4(n, i, j, k, l) for i, j, k, l in combinations(range(1, n + 1), 4)
    ]
    s2_list = [
        build_S2(n, i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if not (i == n and j == n)
    ]

    family_rows = [q_hat] + s4_list + s2_list
    weighted = [_weighted_coords(t) for t in family_rows]
    joint = SparseRREF()
    independent = all(joint.add_row(dict(r))[0] == "pivot" for r in weighted)

    columns = [
        _pair_coord(a, b)
        for ai, a in enumerate(gens)
        for b in gens[ai:]
    ]
    coord_to_pair = {}
    for ai, a in enumerate(gens):
        for b in gens[ai:]:
            coord_to_pair[_pair_coord(a, b)] = (a, b)

    null = rref_nullspace(weighted, columns)
    e22_basis = []
    for vec in null:
        coeffs: Dict[PairKey, Fraction] = {}
        for coord, v in vec.items():
            a, b = coord_to_pair[coord]
            coeffs[(a, b)] = v
            if a != b:
                coeffs[(b, a)] = v
        e22_basis.append(SymSquareTensor(sig, "M", coeffs))

    dims = (1, len(s4_list), len(s2_list), len(e22_basis))
    direct_sum_ok = (
        independent
        and joint.rank == 1 + len(s4_list) + len(s2_list)
        and sum(dims) == total_dim
    )

    subspaces = [
        InvariantSubspace("empty", n, (q_hat,)),
        InvariantSubspace("(1,1,1,1)", n, tuple(s4_list)),
        InvariantSubspace("(2)", n, tuple(s2_list)),
        InvariantSubspace("(2,2)", n, tuple(e22_basis)),
    ]

    images_checked = 0
    rref_s4 = SparseRREF()
    for t in s4_list:
        rref_s4.add_row(_coords(t))
    rref_s2 = SparseRREF()
    for t in s2_list:
        rref_s2.add_row(_coords(t))

    q_ok = True
    s4_ok = True
    s2_ok = True
    for x in gens:
        ex = LieElement.basis(x, sig)
        img = adjoint_action(ex, q_hat)
        images_checked += 1
        if not img.is_zero():
            q_ok = False
        for t in s4_list:
            images_checked += 1
            if rref_s4.residual(_coords(adjoint_action(ex, t))):
                s4_ok = False
        for t in s2_list:
            images_checked += 1
            if rref_s2.residual(_coords(adjoint_action(ex, t))):
                s2_ok = False

    certificates = {
        "pairing_diagonal": _form_diagonal_certificate(n),
        "pairing_ad_invariant": _form_ad_invariance_certificate(n),
        "families_invariant": q_ok and s4_ok and s2_ok,
    }
    invariance_ok = {
        "empty": q_ok,
        "(1,1,1,1)": s4_ok,
        "(2)": s2_ok,
        "(2,2)": all(certificates.values()),
    }

    return DecompositionReport(
        n=n,
        subspaces=subspaces,
        dims=dims,
        total_dim=total_dim,
        direct_sum_ok=direct_sum_ok,
        invariance_ok=invariance_ok,
        certificates=certificates,
        images_checked=images_checked,
    )


# -- the assembled dichotomy ------------------------------------------------------------


@dataclass
class TheoremReport:
    """Joint outcome of the three inclusion steps for one parameter set."""

    p: int
    q: int
    m: int
    sign: int
    casimir_scalar: Fraction
    casimir_step_ok: bool
    s4_count: int
    s4_step_ok: bool
    obstruction: ObstructionResult
    joseph_consistent: bool
    predicted: bool

    def matches_prediction(self) -> bool:
        return self.joseph_consistent == self.predicted

    def to_dict(self) -> Dict:
        return {
            "p": self.p,
            "q": self.q,
            "m": self.m,
            "sign": self.sign,
            "casimir_scalar": str(self.casimir_scalar),
            "casimir_step_ok": self.casimir_step_ok,
            "s4_count": self.s4_count,
            "s4_step_ok": self.s4_step_ok,
            "obstruction": self.obstruction.to_dict(),
            "joseph_consistent": self.joseph_consistent,
            "predicted": self.predicted,
            "matches_prediction": self.matches_prediction(),
        }


def theorem_ingredients(params: ModuleParams, D: Optional[int] = None) -> TheoremReport:
    """Run the three inclusion steps and report the assembled dichotomy.

    Step one verifies that the full Casimir acts by its closed scalar on the
    default sampled elements, which places the one-dimensional piece inside
    the graded annihilator symbol.  Step two verifies that every alternating
    tensor maps to the zero operator, placing the second piece.  Step three
    runs the exact solvability question for the traceless piece; a witness
    there is exactly what the third inclusion needs.  The report is
    consistent with the dichotomy when all three steps place their piece,
    and the prediction field records whether the parameter m is zero.
    """
    d_main = D if D is not None else default_depth(params.m)
    d_solver = D if D is not None else default_solver_depth(params.m)

    casimir_ok = all(eigenvalue_check("g", f).ok for f in default_samples(params, d_main))

    s4_count, s4_ok = s4_vanishing((params.p, params.q))

    obstruction = garfinkle_obstruction(params, d_solver)

    return TheoremReport(
        p=params.p,
        q=params.q,
        m=params.m,
        sign=params.sign,
        casimir_scalar=params.scalar("g"),
        casimir_step_ok=casimir_ok,
        s4_count=s4_count,
        s4_step_ok=s4_ok,
        obstruction=obstruction,
        joseph_consistent=casimir_ok and s4_ok and obstruction.exists,
        predicted=params.m == 0,
    )
