"""Rewrite moves on sign schemes and certificates built from them.

Each move flips the signs at a small set of triangle positions. A move
only applies when the current scheme shows a specific sign pattern at
those positions; the patterns are chosen so that applying the move never
decreases the product polynomial attached to the scheme anywhere on the
unit cube.

Move kinds, with the pattern required before the flip:

    P  Point(i; j)            needs (i,j) = '+'
    H  Horizontal(i; j, j2)   needs (i,j) = '+', (i,j2) = '-',  j < j2
    V  Vertical(i, i2; j)     needs (i,j) = '-', (i2,j) = '+',  i < i2 <= j
    S  Square(i, i2; j, j2)   needs (i,j) = '-', (i,j2) = '+',
                                    (i2,j) = '+', (i2,j2) = '-',
                              with i < i2 <= j < j2

Applying a move flips exactly the listed positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DimensionError, DomainError, InvalidMoveError, TriangleIndexError
from .schemes import MINUS, PLUS, Scheme, as_sign_vector, sign_char

POINT = "P"
HORIZONTAL = "H"
VERTICAL = "V"
SQUARE = "S"

_KINDS = (POINT, HORIZONTAL, VERTICAL, SQUARE)

_KIND_NAMES = {
    POINT: "Point",
    HORIZONTAL: "Horizontal",
    VERTICAL: "Vertical",
    SQUARE: "Square",
}


@dataclass(frozen=True)
class Move:
    """A single rewrite move. i2/j2 are set only for the kinds that use them."""

    kind: str
    i: int
    j: int
    i2: int | None = None
    j2: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown move kind {self.kind!r}")
        if self.kind == POINT:
            ok = self.i2 is None and self.j2 is None and 1 <= self.i <= self.j
        elif self.kind == HORIZONTAL:
            ok = (
                self.i2 is None
                and self.j2 is not None
                and 1 <= self.i <= self.j < self.j2
            )
        elif self.kind == VERTICAL:
            ok = (
                self.j2 is None
                and self.i2 is not None
                and 1 <= self.i < self.i2 <= self.j
            )
        else:
            ok = (
                self.i2 is not None
                and self.j2 is not None
                and 1 <= self.i < self.i2 <= self.j < self.j2
            )
        if not ok:
            raise TriangleIndexError(f"invalid indices for {self!s}")

    @classmethod
    def point(cls, i: int, j: int) -> "Move":
        return cls(POINT, i, j)

    @classmethod
    def horizontal(cls, i: int, j: int, j2: int) -> "Move":
        return cls(HORIZONTAL, i, j, j2=j2)

    @classmethod
    def vertical(cls, i: int, i2: int, j: int) -> "Move":
        return cls(VERTICAL, i, j, i2=i2)

    @classmethod
    def square(cls, i: int, i2: int, j: int, j2: int) -> "Move":
        return cls(SQUARE, i, j, i2=i2, j2=j2)

    def touched_positions(self) -> tuple[tuple[int, int], ...]:
        """The positions this move flips, in pattern order."""
        if self.kind == POINT:
            return ((self.i, self.j),)
        if self.kind == HORIZONTAL:
            return ((self.i, self.j), (self.i, self.j2))
        if self.kind == VERTICAL:
            return ((self.i, self.j), (self.i2, self.j))
        return (
            (self.i, self.j),
            (self.i, self.j2),
            (self.i2, self.j),
            (self.i2, self.j2),
        )

    def required_signs(self) -> tuple[int, ...]:
        """Signs the scheme must show at touched_positions() for this move."""
        if self.kind == POINT:
            return (PLUS,)
        if self.kind == HORIZONTAL:
            return (PLUS, MINUS)
        if self.kind == VERTICAL:
            return (MINUS, PLUS)
        return (MINUS, PLUS, PLUS, MINUS)

    def __str__(self) -> str:
        name = _KIND_NAMES[self.kind]
        if self.kind == POINT:
            return f"{name}({self.i};{self.j})"
        if self.kind == HORIZONTAL:
            return f"{name}({self.i};{self.j},{self.j2})"
        if self.kind == VERTICAL:
            return f"{name}({self.i},{self.i2};{self.j})"
        return f"{name}({self.i},{self.i2};{self.j},{self.j2})"

    def to_obj(self) -> dict:
        """Plain dict for JSON serialization; unused indices are omitted."""
        obj = {"kind": self.kind, "i": self.i}
        if self.i2 is not None:
            obj["i2"] = self.i2
        obj["j"] = self.j
        if self.j2 is not None:
            obj["j2"] = self.j2
        return obj

    @classmethod
    def from_obj(cls, obj) -> "Move":
        if not isinstance(obj, dict):
            raise DomainError(f"move must be an object, got {type(obj).__name__}")
        allowed = {"kind", "i", "i2", "j", "j2"}
        unknown = set(obj) - allowed
        if unknown:
            raise DomainError(f"unknown move fields: {sorted(unknown)}")
        kind = obj.get("kind")
        if kind not in _KINDS:
            raise DomainError(f"unknown move kind {kind!r}")
        for key in ("i", "j", "i2", "j2"):
            v = obj.get(key)
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise DomainError(f"move field {key!r} must be an integer")
        if "i" not in obj or "j" not in obj:
            raise DomainError("move needs fields 'i' and 'j'")
        return cls(kind, obj["i"], obj["j"], i2=obj.get("i2"), j2=obj.get("j2"))


def flipped_positions(move: Move) -> frozenset[tuple[int, int]]:
    return frozenset(move.touched_positions())


def pattern_mismatch(scheme: Scheme, move: Move):
    """First position where scheme disagrees with the move's pattern, or None.

    Returns (position, required_sign, found_sign).
    """
    for pos, req in zip(move.touched_positions(), move.required_signs()):
        found = scheme.sign(*pos)
        if found != req:
            return pos, req, found
    return None


def preconditions_hold(scheme: Scheme, move: Move) -> bool:
    return pattern_mismatch(scheme, move) is None


def apply_move(scheme: Scheme, move: Move) -> Scheme:
    """Apply the move, raising InvalidMoveError if the pattern is absent."""
    mismatch = pattern_mismatch(scheme, move)
    if mismatch is not None:
        pos, req, found = mismatch
        raise InvalidMoveError(str(move), pos, sign_char(req), sign_char(found))
    return scheme.with_flipped(move.touched_positions())


@dataclass(frozen=True)
class Certificate:
    """A sign vector together with a move sequence meant to normalize it."""

    eps: tuple[int, ...]
    moves: tuple[Move, ...]

    def __post_init__(self):
        object.__setattr__(self, "eps", as_sign_vector(self.eps))
        object.__setattr__(self, "moves", tuple(self.moves))
        for m in self.moves:
            if not isinstance(m, Move):
                raise DomainError(f"certificate moves must be Move, got {m!r}")

    @property
    def n(self) -> int:
        return len(self.eps)

    def touched_disjoint(self) -> bool:
        """Whether no two moves flip the same position."""
        seen = set()
        for m in self.moves:
            for pos in m.touched_positions():
                if pos in seen:
                    return False
                seen.add(pos)
        return True


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "n": cert.n,
        "eps": list(cert.eps),
        "moves": [m.to_obj() for m in cert.moves],
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_obj(cert), separators=(",", ":"))


def certificate_from_obj(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise DomainError(f"certificate must be an object, got {type(obj).__name__}")
    if "eps" not in obj or "moves" not in obj:
        raise DomainError("certificate needs fields 'eps' and 'moves'")
    eps = as_sign_vector(obj["eps"])
    if "n" in obj:
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise DomainError(f"certificate field 'n' must be an integer, got {n!r}")
        if n != len(eps):
            raise DimensionError(
                f"certificate says n={n} but eps has length {len(eps)}"
            )
    raw_moves = obj["moves"]
    if not isinstance(raw_moves, list):
        raise DomainError(
            f"certificate field 'moves' must be a list, got {type(raw_moves).__name__}"
        )
    return Certificate(eps, tuple(Move.from_obj(m) for m in raw_moves))


def certificate_from_json(text: str) -> Certificate:
    return certificate_from_obj(json.loads(text))
