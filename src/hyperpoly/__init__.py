"""Exact and numerical invariants of star-shaped quiver varieties."""

import importlib

from .betti import (
    PoincarePoly,
    dimensions,
    genericity_check,
    poincare,
    poincare_rank2,
    recursion_residual,
)
from .errors import (
    DegenerateDiscriminantError,
    DegenerateSampleError,
    DegreeOverflowError,
    MomentMapError,
    NonConvergenceError,
    PoleEvaluationError,
    TrivialFiberError,
    ValidationError,
)
from .exact import DensePoly, GaussianRational, PolyMatrix

# The numpy-backed layers and their exports, resolved on first access so
# that `import hyperpoly` and the Betti commands do not import numpy.
_LAZY = {
    "hitchin": "hitchin",
    "BasePoint": "hitchin",
    "BracketObservable": "hitchin",
    "HiggsField": "hitchin",
    "commutation_report": "hitchin",
    "delta_check": "hitchin",
    "higgs_eval": "hitchin",
    "hitchin_map": "hitchin",
    "jacobian_rank": "hitchin",
    "observable_grad": "hitchin",
    "poisson_bracket": "hitchin",
    "residues": "hitchin",
    "quiver": "quiver",
    "QuiverPoint": "quiver",
    "exact_point_from_x": "quiver",
    "min_orbit_check": "quiver",
    "moment_residual": "quiver",
    "sample_exact": "quiver",
    "solve_real": "quiver",
    "spectral": "spectral",
    "CharPoly": "spectral",
    "TwistedHiggs": "spectral",
    "local_models": "spectral",
    "order_check": "spectral",
    "smoothness_probe": "spectral",
    "spectral_charpoly": "spectral",
    "trace_consistency": "spectral",
    "twist": "spectral",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BasePoint",
    "BracketObservable",
    "CharPoly",
    "DegenerateDiscriminantError",
    "DegenerateSampleError",
    "DegreeOverflowError",
    "DensePoly",
    "GaussianRational",
    "HiggsField",
    "MomentMapError",
    "NonConvergenceError",
    "PoincarePoly",
    "PoleEvaluationError",
    "PolyMatrix",
    "QuiverPoint",
    "TrivialFiberError",
    "TwistedHiggs",
    "ValidationError",
    "commutation_report",
    "delta_check",
    "dimensions",
    "exact_point_from_x",
    "genericity_check",
    "higgs_eval",
    "hitchin_map",
    "jacobian_rank",
    "local_models",
    "min_orbit_check",
    "moment_residual",
    "observable_grad",
    "order_check",
    "poincare",
    "poincare_rank2",
    "poisson_bracket",
    "recursion_residual",
    "residues",
    "sample_exact",
    "smoothness_probe",
    "solve_real",
    "spectral_charpoly",
    "trace_consistency",
    "twist",
]

__version__ = "0.1.0"
