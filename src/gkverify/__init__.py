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
* the distinguished vectors of each module family as whole series, each
  fixed by its K-type label and a pair of block harmonics (and the sample
  plans that yield them), one eigenvalue check for the Casimirs
  and the symmetric-square element (all rows of ``liealg.closed_form``) and
  the four-layer mixed generator action, both decided on the K-type labels
  for every term of the series, and the obstruction solver that decides
  whether a degree-two annihilator element with the required eigenvalue
  exists (``gkmodule``),
* the symmetric square of the adjoint representation, its invariant
  decomposition, and the combined annihilator-ideal criterion (``symsq``),
* a named check registry and command line runner (``checks``, ``cli``).

All arithmetic is exact, and no check truncates a series: each label sum
of a module identity is a polynomial in the series index of known degree,
and it is tested at one more index than that degree.

Each module's ``__all__`` is its public API, written once where the names
are defined; the package re-exports those five lists and adds
``__version__``.
"""

from . import poly, weyl, liealg, gkmodule, symsq
from .poly import *
from .weyl import *
from .liealg import *
from .gkmodule import *
from .symsq import *

__version__ = "0.1.0"

__all__ = [
    *poly.__all__,
    *weyl.__all__,
    *liealg.__all__,
    *gkmodule.__all__,
    *symsq.__all__,
    "__version__",
]
