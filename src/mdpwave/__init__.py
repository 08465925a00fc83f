"""Traveling-wave solution catalog, verification, and re-derivation toolkit
for the modified generalized Degasperis-Procesi equation

    u_t - u_xxt + (b+1) u^2 u_x = b u_x u_xx + u u_xxx,   b not in {-1, -2}.

Closed-form solution families are catalogued with their admissibility
constraints, proved against the equation by symbolic differentiation plus
numeric residual evaluation (with an independent finite-difference path),
and re-derived from scratch through exact-rational coefficient algebra
with a multistart numeric root finder.
"""
from . import catalog, colehopf, pipeline, polyalg, rational_hyperbolic, riccati, verifier
from . import expr
from .errors import (AllPointsSkipped, ConstraintViolation, MdpWaveError,
                     SampleAtPole, UnboundSymbol, UnclassifiableCoefficients)

__version__ = "0.1.0"

__all__ = [
    "expr", "riccati", "catalog", "colehopf", "rational_hyperbolic",
    "polyalg", "pipeline", "verifier",
    "MdpWaveError", "UnboundSymbol", "ConstraintViolation",
    "UnclassifiableCoefficients", "SampleAtPole",
    "AllPointsSkipped",
    "__version__",
]
