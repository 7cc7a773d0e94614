"""Triangular sign schemes generated by sign vectors.

A scheme of size n assigns a sign to every pair (i, j) with
1 <= i <= j <= n, arranged as a triangle: row i holds the signs
(i, i), (i, i+1), ..., (i, n). The schemes of interest are generated
from a sign vector eps by taking consecutive products,

    C[i, j] = eps[i] * eps[i+1] * ... * eps[j],

and the distinguished target scheme alternates along each row starting
with a minus on the diagonal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

from .errors import DimensionError, DomainError, TriangleIndexError, check_count

PLUS = 1
MINUS = -1

_SIGN_CHARS = {PLUS: "+", MINUS: "-"}
_SIGN_SET = frozenset(_SIGN_CHARS)

_PARSE_TOKENS = {"+": PLUS, "+1": PLUS, "1": PLUS, "-": MINUS, "-1": MINUS}


def sign_char(s: int) -> str:
    """'+' or '-' for a sign value."""
    try:
        return _SIGN_CHARS[s]
    except KeyError:
        raise DomainError(f"not a sign: {s!r}") from None


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
            raise DomainError(f"sign vector entries must be +1 or -1, got {v!r}")
        plain = False
    return eps if plain else tuple(map(int, eps))


def parse_signs(text: str) -> tuple[int, ...]:
    """Parse a sign vector from text like '+ - +', '+1,-1,+1' or '+-+'.

    Accepts the tokens +, -, +1, -1, 1 separated by whitespace or commas;
    a string of bare +/- characters with no separators also works.
    """
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
    return " ".join(sign_char(v) for v in eps)


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
                # plain ints only: True and 1.0 also compare equal to 1
                if type(v) is not int or v not in _SIGN_SET:
                    raise DomainError(f"scheme entries must be +1 or -1, got {v!r}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def check_position(self, i: int, j: int) -> None:
        # plain ints pass before the far slower ABC check; bools are not indices
        if not (type(i) is type(j) is int) and not all(
            isinstance(v, Integral) and not isinstance(v, bool) for v in (i, j)
        ):
            raise DomainError(f"position indices must be integers: ({i!r}, {j!r})")
        if not (1 <= i <= j <= self.n):
            raise TriangleIndexError(
                f"position ({i}, {j}) outside triangle of size {self.n}"
            )

    def sign(self, i: int, j: int) -> int:
        self.check_position(i, j)
        return self.rows[i - 1][j - i]

    def positions(self) -> Iterator[tuple[int, int]]:
        """All (i, j) with 1 <= i <= j <= n, row by row."""
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                yield i, j

    def with_flipped(self, positions) -> "Scheme":
        """A copy with the signs at the given positions negated."""
        rows = [list(row) for row in self.rows]
        for i, j in positions:
            self.check_position(i, j)
            rows[i - 1][j - i] = -rows[i - 1][j - i]
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
        lines = []
        for i, row in enumerate(self.rows, start=1):
            lines.append("  " * (i - 1) + " ".join(sign_char(v) for v in row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def generate_scheme(eps) -> Scheme:
    """The scheme with C[i, j] = eps[i] * ... * eps[j].

    Computed with running products along each row, O(n^2) total.
    """
    eps = as_sign_vector(eps)
    n = len(eps)
    rows = []
    for i in range(1, n + 1):
        row = []
        prod = 1
        for j in range(i, n + 1):
            prod *= eps[j - 1]
            row.append(prod)
        rows.append(tuple(row))
    return Scheme._trusted(tuple(rows))  # products of plain +1/-1 ints


def _check_size(name: str, n) -> int:
    """n as an int; DomainError unless an integer, DimensionError if below 1."""
    if isinstance(n, Integral) and not isinstance(n, bool) and n < 1:
        raise DimensionError(f"{name} must be positive, got {n}")
    return check_count(name, n, 1)


def reference_sign(i: int, j: int) -> int:
    """Sign at (i, j) in the target scheme: minus on the diagonal, alternating."""
    return MINUS if (j - i) % 2 == 0 else PLUS


def reference_scheme(n: int) -> Scheme:
    """The target scheme of size n, generated by the all-minus vector."""
    return generate_scheme((MINUS,) * _check_size("scheme size", n))


def wrong_set(scheme: Scheme) -> frozenset[tuple[int, int]]:
    """Positions whose sign differs from the target scheme."""
    return frozenset(
        (i, j)
        for i, row in enumerate(scheme.rows, 1)
        for j, sign in enumerate(row, i)
        if sign != reference_sign(i, j)
    )


def is_reference(scheme: Scheme) -> bool:
    return not wrong_set(scheme)


def all_sign_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^n sign vectors of length n, plus-first lexicographic order."""
    n = _check_size("sign vector length", n)
    return itertools.product((PLUS, MINUS), repeat=n)
