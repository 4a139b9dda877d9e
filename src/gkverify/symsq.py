"""Symmetric squares of the orthogonal Lie algebras and the annihilator
dichotomy built on top of them.

A degree-2 symmetric tensor is a liealg.Combination (int numerators over one
denominator) over ordered pairs of canonical generators, with the symmetry
c(a, b) = c(b, a) enforced at construction.  Builders write each displayed
summand into its ordered slot, so double sums over both orders land
symmetrically on their own; they and the adjoint action run on numerators
and reduce once per tensor.  An ordered pair is a generator word of length
two, so liealg.transport changes a tensor's flavor, liealg.pi_env gives its
operator image, and liealg.gamma2 reads it as an enveloping element as is.

The coefficient dot product over ordered pairs realizes the invariant trace
pairing in the M flavor, because the invariant form takes value -1 on every
canonical generator and pairs distinct generators to zero (the two -1
factors square away).  Written over unordered coordinates the same pairing
carries weight 2 off the diagonal and weight 1 on it.  The linear algebra
below asks only for ranks and memberships, which neither those weights nor
the denominators change, so its rows are the unweighted numerators over
unordered coordinates.

The four-piece decomposition of the symmetric square realizes the first
three pieces by explicit spanning tensors (the invariant tensor, the
six-term alternating tensors, the traceless one-index-contracted family)
and the last piece as the exact orthocomplement of the first three, whose
dimension is read off by rank plus nullity.  Its invariance certificate is a
chain of finite checks rather than one large membership sweep: the n - 1
elements M_(i,i+1) generate so(n) (an exact bracket closure), the form is
diagonal on generators, the form is ad-invariant under each of those
elements, each explicit family is mapped into its own span by each of them
(exact membership of every adjoint image), and the orthocomplement of an
invariant subspace under an invariant definite pairing is invariant.  A
generating set suffices because the elements that stabilize a subspace form
a Lie subalgebra, and so do the elements that leave the pairing invariant.

The adjoint sweep never builds an image tensor.  For symmetric t,
ad(x) t = F + F^T with F(g1, b) = sum_a [x, a]_g1 t(a, b), so the image's
unordered row holds F(u, v) + F(v, u) off the diagonal and 2 F(u, u) on it,
accumulated from t's numerators over t's terms indexed by their left slot;
x = M_(i,i+1) brackets only the 2(n - 2) generators sharing an index with
it to something nonzero, and only those left slots are read.  The row is
the reduced image's row times a positive integer, and a residual vanishes
for both or for neither, so each membership is decided as for the tensor.
adjoint_action stays the tensor-level action, and the tests compare the
two.  The ad-invariance of the form visits only the nonzero structure
constants (see _form_ad_invariance_certificate).

The theorem assembly at the bottom shares its two pure ingredients with the
checks that run them on their own: garfinkle_obstruction and s4_vanishing
are memoized, so each is solved once per parameter set, and the assembly reads
the obstruction check's memo entry.  Its TheoremReport stores only the step
results and derives the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Tuple

from .gkmodule import (
    ModuleParams,
    ObstructionResult,
    default_samples,
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
    transport,
)
from .linalg import SparseRREF
from .poly import ONE, ScalarLike

__all__ = [
    "SymSquareTensor",
    "build_Q",
    "build_S4",
    "build_S2",
    "build_Xi",
    "xi_closed_form",
    "adjoint_action",
    "gamma2_q_identity",
    "gamma2_xi_identity",
    "s4_vanishing",
    "decompose_S2",
    "DecompositionReport",
    "theorem_ingredients",
    "TheoremReport",
]

Sig = Tuple[int, int]
PairKey = Tuple[Generator, Generator]


class SymSquareTensor(Combination):
    """Symmetric coefficient combination of ordered generator pairs."""

    __slots__ = ()

    def __init__(self, sig: Sig, flavor: str, coeffs: Dict[PairKey, ScalarLike]) -> None:
        super().__init__(sig, flavor, coeffs)
        terms = self._terms
        for (a, b), c in terms.items():
            if a != b and terms.get((b, a)) != c:
                raise ValueError("tensor coefficients are not symmetric")


# -- the named tensors -----------------------------------------------------------------


def build_Q(sig: Sig, flavor: str = "X") -> SymSquareTensor:
    """The invariant tensor dual to the form, at the (p, q) signature sig.

    In the X flavor the double sum over ordered index pairs collapses to
    twice the dual-signed diagonal over canonical generators; in the M
    flavor it collapses to -2 on every diagonal slot.
    """
    p, q = sig
    if flavor == "X":
        terms = {(g, g): 2 * dual_sign(g, p) for g in generators(p, q, "X")}
    elif flavor == "M":
        terms = {(g, g): -2 for g in generators(p, q, "M")}
    else:
        raise ValueError("flavor must be 'X' or 'M'")
    return SymSquareTensor.reduced(((p, q), flavor), terms, 1)


def build_S4(sig: Sig, i: int, j: int, k: int, l: int) -> SymSquareTensor:
    """Six-term alternating tensor of four strictly increasing indices, at (p, q) = sig."""
    p, q = sig
    n = p + q
    if not (1 <= i < j < k < l <= n):
        raise ValueError("need 1 <= i < j < k < l <= n")
    terms: Dict[PairKey, int] = {}
    for (a, b), (c, d), sgn in (
        ((i, j), (k, l), 1),
        ((i, k), (j, l), -1),
        ((i, l), (j, k), 1),
    ):
        g1 = Generator(a, b, "M")
        g2 = Generator(c, d, "M")
        terms[(g1, g2)] = terms[(g2, g1)] = sgn
    return SymSquareTensor.reduced(((p, q), "M"), terms, 2)


def build_S2(sig: Sig, i: int, j: int) -> SymSquareTensor:
    """One-index contraction, trace part removed on the diagonal, at (p, q) = sig."""
    p, q = sig
    n = p + q
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range")
    terms: Dict[PairKey, int] = {}
    for k in range(1, n + 1):
        if k == i or k == j:
            continue
        gik, s1 = canonical(i, k, "M")
        gkj, s2 = canonical(k, j, "M")
        for key in ((gik, gkj), (gkj, gik)):
            terms[key] = terms.get(key, 0) + s1 * s2
    tensor = SymSquareTensor.reduced(((p, q), "M"), terms, 2)
    if i == j:
        tensor = tensor - build_Q(sig, "M").scale(Fraction(1, n))
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

    Built from the definition: half the weighted sum of S2 diagonal tensors
    in the M flavor, pulled back through the transport.  The
    ``symsq.xi_transport`` check compares it with ``xi_closed_form``.
    """
    p, q = sig
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    acc = SymSquareTensor.zero(sig, "M")
    for i in range(1, p + 1):
        acc = acc + build_S2(sig, i, i)
    for i in range(p + 1, p + q + 1):
        acc = acc - build_S2(sig, i, i)
    return transport(acc.scale(Fraction(1, 2)))


# -- actions ---------------------------------------------------------------------------


def adjoint_action(x: LieElement, t: SymSquareTensor) -> SymSquareTensor:
    """Derivation action, bracket on the left slot plus bracket on the right."""
    if x.ctx != t.ctx:
        raise ValueError("mismatched signature or flavor")
    table = _bracket_table(*t.ctx)
    out: Dict[PairKey, int] = {}
    get = out.get
    for (a, b), c in t._terms.items():
        for gx, cx in x._terms.items():
            f = cx * c
            for g1, s in table[(gx, a)].items():
                k = (g1, b)
                out[k] = get(k, 0) + f * s
            for g2, s in table[(gx, b)].items():
                k = (a, g2)
                out[k] = get(k, 0) + f * s
    return SymSquareTensor.reduced(t.ctx, out, x.den * t.den)


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


@lru_cache(maxsize=None)
def s4_vanishing(sig: Sig) -> Tuple[int, bool]:
    """Count the alternating tensors and test that every operator image is zero.

    Memoized on the signature, so the theorem assembly reads the result of
    the S4 check instead of recomputing it.
    """
    n = sum(sig)
    count = 0
    all_zero = True
    for i, j, k, l in combinations(range(1, n + 1), 4):
        op = pi_env(build_S4(sig, i, j, k, l))
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
    """Dimension audit and invariance certificates for the four pieces.

    subspaces holds the three explicitly spanned pieces; the (2,2) piece
    enters through its dimension alone.
    """

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


def _coords(t: SymSquareTensor) -> Dict[int, int]:
    """Unordered-coordinate row of a symmetric tensor's numerators.

    The row is the tensor's vector times its denominator: scaling a row
    changes neither a rank nor whether a residual vanishes.
    """
    return {_pair_coord(a, b): c for (a, b), c in t._terms.items() if a <= b}


def generating_set(n: int) -> Tuple[Generator, ...]:
    """The n - 1 elements M_(i,i+1), which generate so(n) as a Lie algebra."""
    return tuple(Generator(i, i + 1, "M") for i in range(1, n))


def _generating_set_certificate(n: int, xs: Sequence[Generator]) -> bool:
    """The Lie subalgebra generated by xs is all of so(n).

    That subalgebra is the smallest subspace holding xs and closed under
    ad(x) for x in xs (it is spanned by left-normed brackets).  Each element
    that raises the exact rank of the span is bracketed with every x, and the
    final rank is compared with the number of generators.  Elements are int
    coordinate rows: a bracket sums the table's rows [x, g] over the terms
    of v, and a row's scale changes no rank.
    """
    table = _bracket_table((n, 0), "M")
    column = {g: idx for idx, g in enumerate(generators(n, 0, "M"))}
    span = SparseRREF()
    frontier: List[Dict[Generator, int]] = [{x: 1} for x in xs]
    while frontier:
        v = frontier.pop()
        if span.add_row({column[g]: c for g, c in v.items()})[0] == "pivot":
            for x in xs:
                w: Dict[Generator, int] = {}
                for g, c in v.items():
                    for h, s in table[(x, g)].items():
                        w[h] = w.get(h, 0) + c * s
                frontier.append({h: c for h, c in w.items() if c})
    return span.rank == len(column)


def _form_diagonal_certificate(n: int) -> bool:
    """The invariant form takes -1 on each canonical generator, 0 across pairs.

    Only the N diagonal values are computed.  form_B sums over the
    generators its two arguments share, and two distinct basis elements,
    each one canonical generator, share none, so every off-diagonal value
    is 0 without a call.
    """
    return all(
        form_B(e, e) == -ONE for e in (LieElement.basis(g, (n, 0)) for g in generators(n, 0, "M"))
    )


def _form_ad_invariance_certificate(n: int, xs: Sequence[Generator]) -> bool:
    """Bracket skewness of the form for every x in xs and generator pair.

    With the form diagonal, the form value against a generator reads off a
    single bracket coefficient, so the skewness condition is
    [x, a]_b + [x, b]_a == 0 for every pair (a, b) of generators.  Only the
    pairs with [x, a]_b != 0 are visited: a nonzero sum has a nonzero term,
    so either [x, a]_b != 0 and the pair (a, b) is visited, or
    [x, b]_a != 0 and the pair (b, a) is, with the same sum.
    """
    table = _bracket_table((n, 0), "M")
    gens = generators(n, 0, "M")
    for x in xs:
        for a in gens:
            for b, s in table[(x, a)].items():
                if s + table[(x, b)].get(a, 0):
                    return False
    return True


def _adjoint_rows(
    n: int, xs: Sequence[Generator], tensors: Sequence[SymSquareTensor]
) -> Iterator[Dict[int, int]]:
    """An unordered-coordinate row of ad(x) t for each t in tensors, then
    each x in xs, each a positive multiple of _coords(adjoint_action(x, t)).

    For a symmetric t, ad(x) t = F + F^T with F(g1, b) = sum_a [x, a]_g1 t(a, b),
    so the row holds F(u, v) + F(v, u) at an unordered pair {u, v} and
    2 F(u, u) on the diagonal: each product [x, a]_g1 t(a, b) is added at
    {g1, b}, twice when g1 == b.  The terms of t are indexed by their left
    slot once, and each x visits only the left slots a with [x, a] != 0.
    The sums are t's numerators, unreduced, so the row is the reduced image's
    row times a positive integer (or both are zero).
    """
    table = _bracket_table((n, 0), "M")
    gens = generators(n, 0, "M")
    # per x: each left slot a with [x, a] != 0, and [x, a] by generator key i * 256 + j
    moves = [
        [
            (a, [(g.i * 256 + g.j, s) for g, s in table[(x, a)].items()])
            for a in gens
            if (x, a) in table
        ]
        for x in xs
    ]
    for t in tensors:
        by_left: Dict[Generator, List[Tuple[int, int]]] = {}
        for (a, b), c in t._terms.items():
            by_left.setdefault(a, []).append((b.i * 256 + b.j, c))
        for visits in moves:
            row: Dict[int, int] = {}
            get = row.get
            for a, brackets in visits:
                right = by_left.get(a)
                if right is None:
                    continue
                for u, s in brackets:
                    for v, c in right:
                        # _pair_coord of the generators keyed u and v
                        k = (u << 16) + v if u <= v else (v << 16) + u
                        row[k] = get(k, 0) + (2 * s * c if u == v else s * c)
            yield row


def _span_invariant(
    n: int, xs: Sequence[Generator], tensors: Sequence[SymSquareTensor]
) -> Tuple[bool, int]:
    """Whether every adjoint image ad(x) t, x in xs, lies in the span of the
    tensors (by exact membership), and how many images were checked.

    The images are the rows of _adjoint_rows.  Each is a positive multiple
    of the image tensor's own row, and a row's residual against the span is
    zero exactly when that of any nonzero multiple is, so membership is
    decided as for the tensor itself.
    """
    span = SparseRREF()
    for t in tensors:
        span.add_row(_coords(t))
    ok = not any(span.residual(row) for row in _adjoint_rows(n, xs, tensors))
    return ok, len(xs) * len(tensors)


def decompose_S2(n: int) -> DecompositionReport:
    """Split the symmetric square into its four exact invariant pieces.

    The first three pieces come with explicit spanning tensors, built at the
    signature (n, 0), whose joint independence is certified by an exact rank
    computation; the last piece
    is the orthocomplement of their span under the trace pairing.  Because
    the pairing weights are positive the pairing is definite on these real
    tensors, so the complement meets the span trivially and its dimension is
    the total minus that rank (rank plus nullity); no basis of it is built.

    The report carries the invariance certificate chain described in the
    module docstring, with the adjoint sweeps and the ad-invariance of the
    form run over generating_set(n).
    """
    if n < 4:
        raise ValueError("need n >= 4")
    big_n = n * (n - 1) // 2
    total_dim = big_n * (big_n + 1) // 2

    sig = (n, 0)
    q_hat = build_Q(sig, "M")
    s4_list = [
        build_S4(sig, i, j, k, l) for i, j, k, l in combinations(range(1, n + 1), 4)
    ]
    s2_list = [
        build_S2(sig, i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if not (i == n and j == n)
    ]

    joint = SparseRREF()
    for t in [q_hat] + s4_list + s2_list:
        joint.add_row(_coords(t))
    dims = (1, len(s4_list), len(s2_list), total_dim - joint.rank)

    subspaces = [
        InvariantSubspace("empty", n, (q_hat,)),
        InvariantSubspace("(1,1,1,1)", n, tuple(s4_list)),
        InvariantSubspace("(2)", n, tuple(s2_list)),
    ]

    xs = generating_set(n)
    swept = {}
    images_checked = 0
    for piece in subspaces:
        swept[piece.label], count = _span_invariant(n, xs, piece.basis)
        images_checked += count

    certificates = {
        "generating_set": _generating_set_certificate(n, xs),
        "pairing_diagonal": _form_diagonal_certificate(n),
        "pairing_ad_invariant": _form_ad_invariance_certificate(n, xs),
        "families_invariant": all(swept.values()),
    }
    invariance_ok = {
        label: ok and certificates["generating_set"] for label, ok in swept.items()
    }
    invariance_ok["(2,2)"] = all(certificates.values())

    return DecompositionReport(
        n=n,
        subspaces=subspaces,
        dims=dims,
        total_dim=total_dim,
        direct_sum_ok=joint.rank == 1 + len(s4_list) + len(s2_list),
        invariance_ok=invariance_ok,
        certificates=certificates,
        images_checked=images_checked,
    )


# -- the assembled dichotomy ------------------------------------------------------------


@dataclass(frozen=True)
class TheoremReport:
    """Joint outcome of the three inclusion steps for one parameter set.

    Stores only the ingredients; the verdict, the prediction and the
    parameter fields of to_dict are read off them.
    """

    params: ModuleParams
    casimir_step_ok: bool
    s4_count: int
    s4_step_ok: bool
    obstruction: ObstructionResult

    @property
    def joseph_consistent(self) -> bool:
        return self.casimir_step_ok and self.s4_step_ok and self.obstruction.exists

    @property
    def predicted(self) -> bool:
        return self.params.m == 0

    def matches_prediction(self) -> bool:
        return self.joseph_consistent == self.predicted

    def to_dict(self) -> Dict:
        P = self.params
        return {
            "p": P.p,
            "q": P.q,
            "m": P.m,
            "sign": P.sign,
            "casimir_scalar": str(P.scalar("g")),
            "casimir_step_ok": self.casimir_step_ok,
            "s4_count": self.s4_count,
            "s4_step_ok": self.s4_step_ok,
            "obstruction": self.obstruction.to_dict(),
            "joseph_consistent": self.joseph_consistent,
            "predicted": self.predicted,
            "matches_prediction": self.matches_prediction(),
        }


def theorem_ingredients(params: ModuleParams) -> TheoremReport:
    """Run the three inclusion steps and report the assembled dichotomy.

    Step one verifies that the full Casimir acts by its closed scalar on the
    whole series at each distinct K-type of the default samples, the plan
    the obstruction reads, which places the one-dimensional piece inside
    the graded annihilator symbol; that identity reads the K-type label
    alone, so no typical element is built.  Step two
    verifies that every alternating tensor maps to the zero operator,
    placing the second piece.  Step three runs the exact
    solvability question for the traceless piece on the same samples; a
    witness there is exactly what the third inclusion needs.  The report is
    consistent with the dichotomy when all three steps place their piece,
    and the prediction field records whether the parameter m is zero.

    Steps two and three read the memoized s4_vanishing and
    garfinkle_obstruction, so after the symsq.s4_vanishing and
    garfinkle.obstruction checks have run at the same parameters this
    function solves neither again; the shared ObstructionResult is frozen.
    """
    kts = dict.fromkeys(kt for kt, _, _ in default_samples(params))
    casimir_ok = all(eigenvalue_check("g", params, kt).ok for kt in kts)
    s4_count, s4_ok = s4_vanishing((params.p, params.q))
    obstruction = garfinkle_obstruction(params)
    return TheoremReport(params, casimir_ok, s4_count, s4_ok, obstruction)
