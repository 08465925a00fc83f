"""Traveling-wave solution catalog, verification, and re-derivation toolkit
for the modified generalized Degasperis-Procesi equation

    u_t - u_xxt + (b+1) u^2 u_x = b u_x u_xx + u u_xxx,   b not in {-1, -2}.

Closed-form solution families are catalogued with their admissibility
constraints, proved against the equation by symbolic differentiation plus
numeric residual evaluation (with an independent finite-difference path),
and re-derived from scratch through exact-rational coefficient algebra
with a multistart numeric root finder.
"""
import importlib

__version__ = "0.1.0"
_MODULES = ("expr", "riccati", "catalog", "colehopf", "rational_hyperbolic",
            "polyalg", "pipeline", "verifier")
_ERRORS = ("MdpWaveError", "UnboundSymbol", "ConstraintViolation",
           "UnclassifiableCoefficients", "SampleAtPole", "AllPointsSkipped")
__all__ = [*_MODULES, *_ERRORS, "__version__"]


def __getattr__(name):
    """Loads each module and error class at its first use (PEP 562)."""
    if name in _MODULES or name == "errors":
        return importlib.import_module("." + name, __name__)
    if name in _ERRORS:
        return getattr(importlib.import_module(".errors", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
