"""Exception types shared across the package.

The command line maps these onto exit codes: NonConvergenceError to 2,
the validation failures to 1, and plain ValueError (malformed input) to 3.
"""

from __future__ import annotations


class ValidationError(Exception):
    """A mathematical validation failed on structurally well-formed input."""


class TrivialFiberError(ValidationError):
    """The exact fiber contains only y = 0, so no sample exists."""


class DegenerateSampleError(ValidationError):
    """Random draws kept producing rank-deficient x."""


class MomentMapError(ValidationError):
    """A complex moment map equation is violated."""

    def __init__(self, message: str, edge: int | None = None):
        super().__init__(message)
        self.edge = edge


class PoleEvaluationError(ValidationError):
    """Evaluation requested at a pole of the field."""


class DegreeOverflowError(ValidationError):
    """A polynomial exceeded its structural degree bound.

    Carries the trace power at which the bound broke when one is known.
    """

    def __init__(self, message: str, power: int | None = None):
        super().__init__(message)
        self.power = power


class DegenerateDiscriminantError(ValidationError):
    """The discriminant vanishes identically; the curve is non-reduced."""


class NonConvergenceError(Exception):
    """The numerical solver exhausted its budget.

    Carries the best residual seen so the caller can report it.
    """

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual
