"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`ParabolicaError`, so callers can catch one type at the boundary.
The CLI maps these onto process exit codes (see ``cli.py``).
"""

from __future__ import annotations


class ParabolicaError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ParabolicaError):
    """A run configuration failed validation before any numerics ran."""


class UnknownProblem(ParabolicaError):
    """A problem name was not found in the catalog."""


class NonFinite(ParabolicaError):
    """A NaN or infinity appeared where a finite value is required."""


class SingularSigma(ParabolicaError):
    """The diffusion matrix could not be inverted at a queried point."""


class DimensionMismatch(ParabolicaError):
    """Array shapes are inconsistent with the problem dimensions."""


class ExprSyntaxError(ParabolicaError):
    """An expression failed to parse.

    Attributes
    ----------
    position : int
        0-based character offset of the offending token in the source.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class IndexOutOfRange(ExprSyntaxError):
    """A variable index in an expression exceeds the declared dimension."""

    def __init__(self, variable: str, index: int, position: int):
        super().__init__(f"index {index} out of range for {variable!r}", position)
        self.variable = variable
        self.index = index


class MissingBinding(ParabolicaError):
    """An expression references a variable the evaluation context lacks."""


class RegressionFailure(ParabolicaError):
    """A least-squares fit produced unusable (non-finite) coefficients."""


class GammaDependence(ParabolicaError):
    """A generator expected to be free of second-order dependence is not."""


class MissingGamma(ParabolicaError):
    """A second-order quantity was requested from a first-order solution."""


class MissingAnalyticV(ParabolicaError):
    """An operation requires a closed-form solution the problem lacks."""


class CflViolation(ParabolicaError):
    """An explicit finite-difference grid violates its stability bound."""
