"""Exception hierarchy shared across the package, and the integer check
that raises InvalidArgumentError for a size or count of another type."""

import numbers


class DespeckleError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(DespeckleError, ValueError):
    """An argument is outside its documented range or combination."""


class DomainError(DespeckleError, ValueError):
    """A numeric input violates a mathematical precondition (e.g. z <= 0)."""


class OutOfBoundsError(DespeckleError, IndexError):
    """A pixel coordinate falls outside the raster."""


class FormatError(DespeckleError, ValueError):
    """A raster file is malformed or inconsistent."""


class DegenerateRegionError(DespeckleError, ValueError):
    """A pixel region is constant where variability is required."""


def check_integer(value, name: str):
    """Raise InvalidArgumentError unless value is an integer: a Python or numpy
    int, not a bool and not a float of integral value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
