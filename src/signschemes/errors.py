"""Exception types shared across the package, and the count and positive checks."""

import math
from numbers import Integral, Real


class DimensionError(ValueError):
    """A vector or scheme has an unusable length."""


class TriangleIndexError(IndexError):
    """A position (i, j) falls outside the triangular index range."""


class DomainError(ValueError):
    """An input value lies outside the domain a function is defined on."""


class InvalidMoveError(ValueError):
    """A rewrite move was applied to a scheme that does not match its pattern."""

    def __init__(self, move, position, expected, found):
        self.move = move
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            f"{move} requires '{expected}' at {position}, found '{found}'"
        )


class AlgorithmInvariantError(RuntimeError):
    """An internal invariant of the normalization algorithm failed.

    Raised when the certificate builder reaches a state the underlying
    counting identities rule out. Seeing this means a bug, not bad input.
    """


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the configured resource budget."""


class BoundViolationError(RuntimeError):
    """A numerically observed value exceeds a proven bound."""


def check_count(name: str, value, least: int = 0) -> int:
    """value as an int; DomainError unless it is an integer >= least (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        kind = "positive" if least else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> None:
    """DomainError unless value is a real number with 0 < value < inf (not a bool)."""
    if isinstance(value, bool) or not (
        isinstance(value, Real) and 0 < value < math.inf
    ):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
