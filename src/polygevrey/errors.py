"""Exception types shared across the package."""


class PolygevreyError(Exception):
    """Base class for all package errors."""


class GeometryError(PolygevreyError, ValueError):
    """Invalid sector/polysector data or a point outside its domain."""


class DimensionMismatchError(GeometryError):
    """Operands have different numbers of axes."""


class SeriesError(PolygevreyError, ValueError):
    """Invalid multi-index series data or an ill-posed fit."""


class DomainError(PolygevreyError, ValueError):
    """Evaluation requested outside a function's domain of validity."""


class QuadratureError(PolygevreyError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Only the reference quadrature in ``transforms`` raises it.  ``partial``
    holds the best available value, ``error`` its estimated error.
    """

    def __init__(self, message, partial=None, error=None):
        super().__init__(message)
        self.partial = partial
        self.error = error


class TailError(PolygevreyError, RuntimeError):
    """A Borel-sum tail cannot be controlled to the requested tolerance."""


class ProbeError(PolygevreyError, RuntimeError):
    """A radius ladder did not produce converged extrapolants.

    ``best`` holds the least-uncertain extrapolation found along the ladder.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class FamilyError(PolygevreyError, KeyError):
    """A requested family element is not stored."""


class CoherenceError(PolygevreyError, ValueError):
    """A family failed its coherence pre-check.  ``report`` holds the details."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnknownEntryError(PolygevreyError, KeyError):
    """Requested testbed id is not registered."""


class ConfigError(PolygevreyError, ValueError):
    """An experiment configuration failed schema validation."""
