"""Exception types shared across the package, and the base class of its value types."""


class Record:
    """Immutable value: its fields are the names annotated in the class body, in order.

    A subclass's ``__init__`` checks its arguments and stores one value per
    field with :meth:`_set`; assigning or deleting an attribute afterwards
    raises AttributeError.  Equality and hash compare the fields, and the repr
    lists them.  (Written out instead of generated, so importing costs nothing.)
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _set(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class PolygevreyError(Exception):
    """Base class for all package errors."""

    __str__ = Exception.__str__  # the message itself, not KeyError's repr of it


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
    """A radius ladder did not produce converged extrapolants."""


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
