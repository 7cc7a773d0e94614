"""Exception types shared across the package, the count and positive checks,
and printable, which keeps a huge integer or Fraction from breaking a message."""

import math
from fractions import Fraction
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


class _Shown:
    """Stands in a message for a number too long to print."""

    def __init__(self, text: str):
        self.text = text

    def __repr__(self) -> str:
        return self.text


def printable(value):
    """value, or a stand-in for an int or a Fraction too long to print.

    str() and repr() refuse an integer over the interpreter's digit limit
    (4,300 digits by default, 640 at the least), so a message that formats
    one would raise ValueError itself. An int over 2048 bits is shown by
    its bit length, and a Fraction with such a numerator or denominator as
    Fraction(numerator, denominator), each part through printable. Every
    other value is returned as it is, so messages about normal sizes do
    not change.
    """
    if isinstance(value, int) and value.bit_length() > 2048:
        return _Shown(f"[{value.bit_length()}-bit integer]")
    if isinstance(value, Fraction) and max(
        value.numerator.bit_length(), value.denominator.bit_length()
    ) > 2048:
        num, den = printable(value.numerator), printable(value.denominator)
        return _Shown(f"{type(value).__name__}({num!r}, {den!r})")
    return value


def check_count(name: str, value, least: int = 0) -> int:
    """value as an int; DomainError unless it is an integer >= least (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        kind = "positive" if least else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {printable(value)!r}")
    return int(value)


def check_positive(name: str, value) -> None:
    """DomainError unless value is a real number with 0 < value < inf (not a bool)."""
    if isinstance(value, bool) or not (
        isinstance(value, Real) and 0 < value < math.inf
    ):
        shown = printable(value)
        raise DomainError(f"{name} must be positive and finite, got {shown!r}")
