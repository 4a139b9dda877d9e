"""Exact verification toolkit for a family of small unitary-like modules.

The package computes, with exact rational arithmetic throughout
(polynomials, operators, Lie and enveloping elements and symmetric-square
tensors as integer numerators over one shared denominator; the rows of the
exact echelon form as primitive integer rows; series and eigenvalues as
``fractions.Fraction``):

* polynomial differential operators on two pseudo-orthogonal blocks of
  variables (``poly``, ``weyl``),
* the indefinite orthogonal Lie algebra, its oscillator realization on the
  compact M basis (where it is real), the sign transport from the
  signature basis, and its universal enveloping algebra in PBW normal form
  (``liealg``),
* truncated expansions of the distinguished vectors of each module family
  (``TypicalElement``, which carries its family, K-type and harmonics, and
  the sample plans that yield them), one eigenvalue check for the Casimirs and the symmetric-square element
  (all rows of ``liealg.closed_form``), the four-layer mixed
  generator action, and the obstruction solver that decides whether a
  degree-two annihilator element with the required eigenvalue exists
  (``gkmodule``),
* the symmetric square of the adjoint representation, its invariant
  decomposition, and the combined annihilator-ideal criterion (``symsq``),
* a named check registry and command line runner (``checks``, ``cli``).

All arithmetic is exact; every reported equality of truncated series states
agreement up to an explicitly tracked validity degree.
"""

from .poly import (
    ONE,
    ZERO,
    DegenerateDaggerError,
    MultiPoly,
    NonHomogeneousError,
    RadialSeries,
    TruncationError,
    VariableSpace,
    dagger,
    euler,
    harmonic_basis,
    harmonic_dim,
    laplacian,
    rho,
    rsq,
)
from .weyl import WeylOperator, euler_op, laplacian_op, rsq_op
from .liealg import (
    EnvelopingElement,
    Generator,
    LieElement,
    bracket,
    casimir,
    closed_form,
    closed_operator,
    degree2_symbol,
    dual_sign,
    form_B,
    gamma2,
    generator_matrix,
    generators,
    pbw_normal_form,
    pi_casimir,
    pi_env,
    pi_generator,
    pi_lie,
    sl2_casimir_op,
    sl2_triple,
    transport,
    transport_sign,
)
from .gkmodule import (
    DegenerateDenominatorError,
    DegenerateSampleError,
    EigenvalueReport,
    KType,
    ModuleParams,
    ObstructionResult,
    PsiPoleError,
    TruncatedElement,
    TypicalElement,
    apply_operator,
    closed_apply,
    default_samples,
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
    DecompositionReport,
    SymSquareTensor,
    TheoremReport,
    adjoint_action,
    build_Q,
    build_S2,
    build_S4,
    build_Xi,
    decompose_S2,
    gamma2_q_identity,
    gamma2_xi_identity,
    pairing,
    s4_vanishing,
    theorem_ingredients,
    xi_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "ZERO",
    "ONE",
    "VariableSpace",
    "MultiPoly",
    "RadialSeries",
    "harmonic_basis",
    "harmonic_dim",
    "dagger",
    "euler",
    "laplacian",
    "rsq",
    "rho",
    "NonHomogeneousError",
    "DegenerateDaggerError",
    "TruncationError",
    "WeylOperator",
    "euler_op",
    "laplacian_op",
    "rsq_op",
    "Generator",
    "LieElement",
    "EnvelopingElement",
    "generators",
    "generator_matrix",
    "dual_sign",
    "bracket",
    "form_B",
    "transport_sign",
    "transport",
    "pbw_normal_form",
    "degree2_symbol",
    "gamma2",
    "casimir",
    "pi_generator",
    "pi_lie",
    "pi_env",
    "pi_casimir",
    "sl2_triple",
    "sl2_casimir_op",
    "closed_form",
    "closed_operator",
    "KType",
    "ModuleParams",
    "TruncatedElement",
    "TypicalElement",
    "PsiPoleError",
    "DegenerateDenominatorError",
    "DegenerateSampleError",
    "psi_series",
    "typical_element",
    "ktype_elements",
    "product_elements",
    "apply_operator",
    "closed_apply",
    "verify_membership",
    "eigenvalue_check",
    "EigenvalueReport",
    "p_action_check",
    "ktype_enumeration",
    "default_samples",
    "garfinkle_obstruction",
    "ObstructionResult",
    "SymSquareTensor",
    "build_Q",
    "build_S4",
    "build_S2",
    "build_Xi",
    "xi_closed_form",
    "pairing",
    "adjoint_action",
    "gamma2_q_identity",
    "gamma2_xi_identity",
    "s4_vanishing",
    "decompose_S2",
    "DecompositionReport",
    "theorem_ingredients",
    "TheoremReport",
    "__version__",
]
