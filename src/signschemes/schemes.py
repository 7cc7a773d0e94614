"""Triangular sign schemes generated by sign vectors.

A scheme of size n assigns a sign, the int +1 or -1 and never a bool,
float or numpy scalar, to every pair (i, j) with 1 <= i <= j <= n,
arranged as a triangle: row i holds the signs (i, i), (i, i+1), ..., (i, n).
The schemes of interest are generated from a sign vector eps through its
prefix products pre[k] = eps[1] * ... * eps[k], pre[0] = 1:

    C[i, j] = eps[i] * eps[i+1] * ... * eps[j] = pre[i-1] * pre[j].

The target scheme, generated by the all-minus vector, alternates along
each row starting with a minus on the diagonal; row i is a prefix of row 1.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

from .errors import (
    DimensionError,
    DomainError,
    TriangleIndexError,
    check_count,
    printable,
)

PLUS = 1
MINUS = -1

_SIGN_CHARS = {PLUS: "+", MINUS: "-"}

_PARSE_TOKENS = {"+": PLUS, "+1": PLUS, "1": PLUS, "-": MINUS, "-1": MINUS}


def sign_char(s: int) -> str:
    """'+' or '-' for a sign value; DomainError for anything else, True included."""
    if type(s) is not int or s not in _SIGN_CHARS:
        raise DomainError(f"not a sign: {printable(s)!r}")
    return _SIGN_CHARS[s]


def as_sign_vector(values) -> tuple[int, ...]:
    """Validate and freeze a sequence of +1/-1 entries as plain ints.

    Entries must be integers; bools and floats are rejected even where
    they compare equal to +1 or -1.
    """
    try:
        eps = tuple(values)
    except TypeError:
        raise DomainError(f"sign vector must be a sequence, got {values!r}") from None
    if not eps:
        raise DimensionError("sign vector must be non-empty")
    plain = True
    for v in eps:
        if type(v) is int and v in (PLUS, MINUS):
            continue
        if isinstance(v, bool) or not isinstance(v, Integral) or v not in (PLUS, MINUS):
            v = printable(v)
            raise DomainError(f"sign vector entries must be +1 or -1, got {v!r}")
        plain = False
    return eps if plain else tuple(map(int, eps))


def parse_signs(text: str) -> tuple[int, ...]:
    """Parse a sign vector from text like '+ - +', '+1,-1,+1' or '+-+'.

    Accepts the tokens +, -, +1, -1, 1 separated by whitespace or commas;
    a string of bare +/- characters with no separators also works.
    """
    if not isinstance(text, str):
        raise DomainError(f"sign vector text must be a str, got {type(text).__name__}")
    cleaned = text.replace(",", " ").strip()
    if not cleaned:
        raise DimensionError("empty sign vector")
    tokens = cleaned.split()
    if len(tokens) == 1 and set(tokens[0]) <= {"+", "-"} and len(tokens[0]) > 1:
        tokens = list(tokens[0])
    out = []
    for tok in tokens:
        if tok not in _PARSE_TOKENS:
            raise DomainError(f"cannot parse sign token {tok!r}")
        out.append(_PARSE_TOKENS[tok])
    return tuple(out)


def format_signs(eps) -> str:
    """'+ - +' for a sign vector; refuses what as_sign_vector refuses."""
    return " ".join(map(sign_char, as_sign_vector(eps)))


@dataclass(frozen=True)
class Scheme:
    """An immutable triangular sign scheme.

    rows[i-1] holds row i; rows[i-1][j-i] is the sign at position (i, j).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            lengths = [len(row) for row in self.rows]
        except TypeError:
            raise DomainError(f"scheme rows must be sequences: {self.rows!r}") from None
        n = len(lengths)
        if n == 0:
            raise DimensionError("scheme must have at least one row")
        for idx, row in enumerate(self.rows):
            if len(row) != n - idx:
                raise DimensionError(
                    f"row {idx + 1} has length {len(row)}, expected {n - idx}"
                )
            for v in row:
                if type(v) is not int or v not in _SIGN_CHARS:
                    v = printable(v)
                    raise DomainError(f"scheme entries must be +1 or -1, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def check_position(self, i: int, j: int) -> None:
        _check_position(i, j, self.n)

    def sign(self, i: int, j: int) -> int:
        self.check_position(i, j)
        return self.rows[i - 1][j - i]

    def positions(self) -> Iterator[tuple[int, int]]:
        """All (i, j) with 1 <= i <= j <= n, row by row."""
        return itertools.combinations_with_replacement(range(1, self.n + 1), 2)

    def with_flipped(self, positions) -> "Scheme":
        """A copy with the signs at the given positions negated."""
        rows = [list(row) for row in self.rows]
        try:
            for i, j in positions:
                self.check_position(i, j)
                rows[i - 1][j - i] = -rows[i - 1][j - i]
        except DomainError:  # check_position's own refusal
            raise
        except (TypeError, ValueError):  # iterating or unpacking positions failed
            raise DomainError(f"positions must be (i, j) pairs, got {positions!r}") from None
        # a negated sign is a sign, so only the positions need checking
        return Scheme._trusted(tuple(map(tuple, rows)))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "Scheme":
        """A Scheme of rows known to be valid, without __post_init__'s scan."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        return self

    def render(self) -> str:
        """ASCII triangle, one row per line, indented to align columns."""
        return "\n".join(
            "  " * i + " ".join(map(sign_char, row)) for i, row in enumerate(self.rows)
        )

    def __str__(self) -> str:
        return self.render()


def generate_scheme(eps) -> Scheme:
    """The scheme with C[i, j] = eps[i] * ... * eps[j] = pre[i-1] * pre[j].

    Row i is the slice pre[i:] of the prefix products, or of their
    negation where pre[i-1] = -1. Refuses what as_sign_vector refuses.
    """
    pre = (PLUS, *itertools.accumulate(as_sign_vector(eps), operator.mul))
    neg = tuple(-p for p in pre)
    rows = tuple((pre if p == PLUS else neg)[i:] for i, p in enumerate(pre[:-1], 1))
    return Scheme._trusted(rows)  # products of plain +1/-1 ints


def _check_size(name: str, n) -> int:
    """n as an int; DomainError unless an integer, DimensionError if below 1."""
    if isinstance(n, Integral) and not isinstance(n, bool) and n < 1:
        raise DimensionError(f"{name} must be positive, got {printable(n)}")
    return check_count(name, n, 1)


def _check_position(i, j, n) -> None:
    """Refuse (i, j) unless both are integers, not bools, with 1 <= i <= j <= n."""
    # plain ints pass before the far slower ABC check
    if not (type(i) is type(j) is int) and not all(
        isinstance(v, Integral) and not isinstance(v, bool) for v in (i, j)
    ):
        i, j = printable(i), printable(j)
        raise DomainError(f"position indices must be integers: ({i!r}, {j!r})")
    if not (1 <= i <= j <= n):
        i, j, n = printable(i), printable(j), printable(n)
        raise TriangleIndexError(f"position ({i}, {j}) outside triangle of size {n}")


def reference_sign(i: int, j: int) -> int:
    """Target sign at integers 1 <= i <= j: minus on the diagonal, alternating."""
    _check_position(i, j, math.inf)
    return MINUS if (j - i) % 2 == 0 else PLUS


def reference_scheme(n: int) -> Scheme:
    """The target scheme of size n, generated by the all-minus vector."""
    return generate_scheme((MINUS,) * _check_size("scheme size", n))


def wrong_set(scheme: Scheme) -> frozenset[tuple[int, int]]:
    """Positions whose sign differs from the target scheme."""
    if not isinstance(scheme, Scheme):
        raise DomainError(f"expected a Scheme, got {type(scheme).__name__}")
    target = tuple(reference_sign(1, j) for j in range(1, scheme.n + 1))
    return frozenset(
        (i, j)
        for i, row in enumerate(scheme.rows, 1)
        if row != target[: len(row)]
        for j, (sign, want) in enumerate(zip(row, target), i)
        if sign != want
    )


def is_reference(scheme: Scheme) -> bool:
    return not wrong_set(scheme)


def all_sign_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n sign vectors of length n, plus-first lexicographic order."""
    n = _check_size("sign vector length", n)
    return itertools.product((PLUS, MINUS), repeat=n)
