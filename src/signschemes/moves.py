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

A Move is an immutable (kind, i, j, i2, j2) tuple, validated once in
__new__, with read-only properties for its fields. Moves equal and hash
by value, and a Move never equals a plain tuple. A move flips its rows
x its columns; one table, _LAYOUT, gives each kind's name, the tuple
slots of its rows and of its columns, and its pattern's signs, and the
methods and the JSON templates read it. __new__ has one body: indices
that are not all plain ints (i2/j2 may be None) go through _check_fields,
which names the first bad field or passes an int subclass such as an
IntEnum; then one chain tests the kind and its index order together.

certificate_to_json writes the certificate text from one %d template
per move kind, without building dicts; the text is byte-equal to
json.dumps(certificate_to_obj(cert), separators=(",", ":")), which
tests/test_moves.py::test_certificate_to_json_is_json_dumps_of_obj pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DimensionError,
    DomainError,
    InvalidMoveError,
    TriangleIndexError,
    printable,
)
from .schemes import MINUS, PLUS, Scheme, as_sign_vector, sign_char

POINT = "P"
HORIZONTAL = "H"
VERTICAL = "V"
SQUARE = "S"

_FIELD_NAMES = ("kind", "i", "j", "i2", "j2")  # a Move tuple, slot by slot

# Per kind: its name, the tuple slots of its rows and of its columns, and
# the signs its pattern needs at rows x columns, row by row.
_LAYOUT = {
    POINT: ("Point", (1,), (2,), (PLUS,)),
    HORIZONTAL: ("Horizontal", (1,), (2, 4), (PLUS, MINUS)),
    VERTICAL: ("Vertical", (1, 3), (2,), (MINUS, PLUS)),
    SQUARE: ("Square", (1, 3), (2, 4), (MINUS, PLUS, PLUS, MINUS)),
}

_KINDS = tuple(_LAYOUT)

_FIELDS = frozenset(_FIELD_NAMES)

_new = tuple.__new__  # one global lookup per Move


def _check_fields(kind, i, j, i2, j2) -> None:
    """Name the first bad field; an int subclass such as an IntEnum passes."""
    if kind not in _KINDS:
        raise DomainError(f"unknown move kind {kind!r}")
    for key, v in (("i", i), ("j", j), ("i2", i2), ("j2", j2)):
        # bools and numpy integers are not indices
        if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
            raise DomainError(f"move field {key!r} must be an integer")
    if i is None or j is None:
        raise DomainError("move needs fields 'i' and 'j'")


class Move(tuple):
    """A single rewrite move. i2/j2 are set only for the kinds that use them."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int, i2=None, j2=None):
        if not (
            type(i) is type(j) is int
            and (i2 is None or type(i2) is int)
            and (j2 is None or type(j2) is int)
        ):
            _check_fields(kind, i, j, i2, j2)
        # the kind is tested together with its index chain
        if i2 is None:
            ok = kind == (POINT if j2 is None else HORIZONTAL) and 0 < i <= j
        else:
            ok = kind == (VERTICAL if j2 is None else SQUARE) and 0 < i < i2 <= j
        if ok and (j2 is None or j < j2):
            return _new(cls, (kind, i, j, i2, j2))
        _check_fields(kind, i, j, i2, j2)  # an unknown kind is a DomainError
        bad = _new(cls, (kind, i, j, i2, j2))
        raise TriangleIndexError(f"invalid indices for {bad!s}")

    kind, i, j, i2, j2 = (property(itemgetter(k)) for k in range(5))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        kind, i, j, i2, j2 = self
        return f"Move(kind={kind!r}, i={i!r}, j={j!r}, i2={i2!r}, j2={j2!r})"

    @classmethod
    def point(cls, i: int, j: int) -> "Move":
        return cls(POINT, i, j)

    @classmethod
    def horizontal(cls, i: int, j: int, j2: int) -> "Move":
        return cls(HORIZONTAL, i, j, None, j2)

    @classmethod
    def vertical(cls, i: int, i2: int, j: int) -> "Move":
        return cls(VERTICAL, i, j, i2)

    @classmethod
    def square(cls, i: int, i2: int, j: int, j2: int) -> "Move":
        return cls(SQUARE, i, j, i2, j2)

    def touched_positions(self) -> tuple[tuple[int, int], ...]:
        """The positions this move flips, rows x columns in pattern order."""
        _, rows, cols, _ = _LAYOUT[self[0]]
        return tuple([(self[r], self[c]) for r in rows for c in cols])

    def required_signs(self) -> tuple[int, ...]:
        """Signs the scheme must show at touched_positions() for this move."""
        return _LAYOUT[self[0]][3]

    def __str__(self) -> str:
        name, rows, cols, _ = _LAYOUT[self[0]]
        rows, cols = (
            ",".join([f"{printable(self[s])}" for s in ax]) for ax in (rows, cols)
        )
        return f"{name}({rows};{cols})"

    def to_obj(self) -> dict:
        """Plain dict for JSON serialization; unused indices are omitted."""
        _, rows, cols, _ = _LAYOUT[self[0]]
        return {"kind": self[0], **{_FIELD_NAMES[s]: self[s] for s in rows + cols}}

    @classmethod
    def from_obj(cls, obj) -> "Move":
        if not isinstance(obj, dict):
            raise DomainError(f"move must be an object, got {type(obj).__name__}")
        if not obj.keys() <= _FIELDS:
            raise DomainError(f"unknown move fields: {sorted(set(obj) - _FIELDS)}")
        get = obj.get
        return cls(get("kind"), get("i"), get("j"), get("i2"), get("j2"))


def rows_mismatch(rows, move: Move):
    """First (position, required_sign, found_sign) where rows, laid out as
    Scheme.rows, disagree with the move's pattern, or None. The move must
    lie inside the triangle.
    """
    for (r, c), req in zip(move.touched_positions(), move.required_signs()):
        found = rows[r - 1][c - r]
        if found != req:
            return (r, c), req, found
    return None


def pattern_mismatch(scheme: Scheme, move: Move):
    """First position where scheme disagrees with the move's pattern, or None.

    Returns (position, required_sign, found_sign). A move that leaves the
    triangle raises TriangleIndexError, whatever the signs; anything but a
    Scheme and a Move raises DomainError.
    """
    if not (isinstance(scheme, Scheme) and isinstance(move, Move)):
        raise DomainError(
            f"expected a Scheme and a Move, got {type(scheme).__name__} "
            f"and {type(move).__name__}"
        )
    # a Move's index order keeps all but its last column inside the triangle
    _, i, j, _, j2 = move
    if (j2 or j) > scheme.n:
        scheme.check_position(i, j if j > scheme.n else j2)
    return rows_mismatch(scheme.rows, move)


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
        try:
            moves = iter(self.moves)
        except TypeError:
            raise DomainError(
                f"certificate moves must be iterable, got {type(self.moves).__name__}"
            ) from None
        object.__setattr__(self, "moves", tuple(moves))
        for m in self.moves:
            if not isinstance(m, Move):
                raise DomainError(f"certificate moves must be Move, got {m!r}")

    @property
    def n(self) -> int:
        return len(self.eps)


def check_is_certificate(cert) -> None:
    """DomainError unless cert is a Certificate."""
    if not isinstance(cert, Certificate):
        got = type(cert).__name__
        raise DomainError(f"certificate must be a Certificate, got {got}")


def certificate_to_obj(cert: Certificate) -> dict:
    check_is_certificate(cert)
    return {
        "n": cert.n,
        "eps": list(cert.eps),
        "moves": [m.to_obj() for m in cert.moves],
    }


# Per kind, the JSON text of one move and its index fields in key order,
# rows then columns as in Move.to_obj. %d prints an int subclass as
# int.__repr__ does, as json.dumps does.
_MOVE_JSON = {
    kind: (
        '{"kind":"%s"' % kind
        + "".join(',"%s":%%d' % _FIELD_NAMES[s] for s in rows + cols)
        + "}",
        itemgetter(*rows, *cols),
    )
    for kind, (_, rows, cols, _) in _LAYOUT.items()
}


def certificate_to_json(cert: Certificate) -> str:
    """Compact JSON, equal byte for byte to json.dumps of certificate_to_obj."""
    check_is_certificate(cert)
    moves = []
    for m in cert.moves:
        template, fields = _MOVE_JSON[m[0]]
        moves.append(template % fields(m))
    eps = ",".join(map(str, cert.eps))
    return '{"n":%d,"eps":[%s],"moves":[%s]}' % (cert.n, eps, ",".join(moves))


def certificate_from_obj(obj) -> Certificate:
    """Certificate from a decoded JSON object, validating every field.

    Each move dict is passed to Move as keyword arguments. If that raises
    TypeError (a missing, unknown or 'cls' key), or a move is not a plain
    dict, the moves are read again with Move.from_obj, which names the
    first bad move.
    """
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
                f"certificate says n={printable(n)} but eps has length {len(eps)}"
            )
    raw_moves = obj["moves"]
    if not isinstance(raw_moves, list):
        raise DomainError(
            f"certificate field 'moves' must be a list, got {type(raw_moves).__name__}"
        )
    # the JSON keys are Move's keyword names; ** would also take a mapping
    # that is not a dict, which from_obj rejects
    moves = None
    if {*map(type, raw_moves)} <= {dict}:
        try:
            moves = [Move(**m) for m in raw_moves]
        except TypeError:  # a missing, unknown or 'cls' key
            pass
    if moves is None:
        moves = [Move.from_obj(m) for m in raw_moves]
    return Certificate(eps, moves)


def certificate_from_json(text: str) -> Certificate:
    """Parse certificate JSON text (str, or bytes or bytearray in UTF-8, -16 or -32)."""
    if not isinstance(text, (str, bytes, bytearray)):
        got = type(text).__name__
        raise DomainError(
            f"certificate JSON must be str, bytes or bytearray, got {got}"
        )
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DomainError(str(exc)) from exc
    return certificate_from_obj(obj)
