"""Exact and numerical invariants of star-shaped quiver varieties."""

import importlib

# Each submodule and the public names it exports.  The first three load
# with the package; the point layers load on first access, which keeps
# `import hyperpoly` and the Betti commands ~9 ms faster to start.  None
# of them imports numpy: only `floating` does, on a float path.
_EXPORTS = {
    "betti": ("PoincarePoly", "dimensions", "genericity_check", "poincare",
              "poincare_rank2", "recursion_residual"),
    "errors": ("DegenerateDiscriminantError", "DegenerateSampleError",
               "DegreeOverflowError", "MomentMapError", "NonConvergenceError",
               "PoleEvaluationError", "TrivialFiberError", "ValidationError"),
    "exact": ("DensePoly", "GaussianRational", "PolyMatrix"),
    "hitchin": ("BasePoint", "BracketObservable", "HiggsField", "commutation_report",
                "delta_check", "higgs_eval", "hitchin_map", "jacobian_rank",
                "observable_grad", "poisson_bracket", "residues"),
    "quiver": ("QuiverPoint", "exact_point_from_x", "min_orbit_check",
               "moment_residual", "sample_exact", "solve_real"),
    "spectral": ("CharPoly", "TwistedHiggs", "local_models", "order_check",
                 "smoothness_probe", "spectral_charpoly", "trace_consistency", "twist"),
}
_EAGER = ("betti", "errors", "exact")

globals().update(
    (name, getattr(importlib.import_module(f"{__name__}.{module}"), name))
    for module in _EAGER
    for name in _EXPORTS[module]
)

# lazy name -> its submodule; each lazy submodule is also its own name
_LAZY = {
    name: module
    for module, names in _EXPORTS.items() if module not in _EAGER
    for name in (module, *names)
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


__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"
