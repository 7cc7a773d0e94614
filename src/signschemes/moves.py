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
by value, and a Move never equals a plain tuple. A certificate round
trip makes one Move per move, so __new__ starts with a fast path: plain
int indices, i2 and j2 present or None as the kind needs, and the kind
tested together with its index chain (kind == SQUARE and
i < i2 <= j < j2). Only a move that fails that test, or has int-subclass
indices such as an IntEnum, takes the full checks (kind, then index
types, then index ranges), which name the first bad field.

certificate_to_json writes the certificate text from one %d template
per move kind, without building dicts; the text is byte-equal to
json.dumps(certificate_to_obj(cert), separators=(",", ":")), which
tests/test_moves.py::test_certificate_to_json_is_json_dumps_of_obj pins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter

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

_REQUIRED_SIGNS = {
    POINT: (PLUS,),
    HORIZONTAL: (PLUS, MINUS),
    VERTICAL: (MINUS, PLUS),
    SQUARE: (MINUS, PLUS, PLUS, MINUS),
}

_FIELDS = frozenset(("kind", "i", "i2", "j", "j2"))

_INDEX = (int, type(None))  # exact types of an index that needs no type check

_new = tuple.__new__  # one global lookup on Move's fast path


class Move(tuple):
    """A single rewrite move. i2/j2 are set only for the kinds that use them."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int, j: int, i2=None, j2=None):
        # fast path: plain int indices in range for a known kind; the kind
        # and its index chain are tested together
        if type(i) is int and type(j) is int and 0 < i:
            if i2 is None:
                if j2 is None:
                    ok = kind == POINT and i <= j
                else:
                    ok = type(j2) is int and kind == HORIZONTAL and i <= j < j2
            elif j2 is None:
                ok = type(i2) is int and kind == VERTICAL and i < i2 <= j
            else:
                ok = type(i2) is type(j2) is int and kind == SQUARE and i < i2 <= j < j2
            if ok:
                return _new(cls, (kind, i, j, i2, j2))
        return cls._validated(kind, i, j, i2, j2)

    @classmethod
    def _validated(cls, kind, i, j, i2, j2) -> "Move":
        """The full checks: name the first bad field, or accept int subclasses."""
        if not (type(i) is type(j) is int and type(i2) in _INDEX and type(j2) in _INDEX):
            # name the first bad field; bools and numpy integers are not indices
            if kind not in _KINDS:
                raise DomainError(f"unknown move kind {kind!r}")
            for key, v in (("i", i), ("j", j), ("i2", i2), ("j2", j2)):
                if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                    raise DomainError(f"move field {key!r} must be an integer")
            if i is None or j is None:
                raise DomainError("move needs fields 'i' and 'j'")
        if kind == POINT:
            ok = i2 is None and j2 is None and 1 <= i <= j
        elif kind == HORIZONTAL:
            ok = i2 is None and j2 is not None and 1 <= i <= j < j2
        elif kind == VERTICAL:
            ok = j2 is None and i2 is not None and 1 <= i < i2 <= j
        elif kind == SQUARE:
            ok = i2 is not None and j2 is not None and 1 <= i < i2 <= j < j2
        else:
            raise DomainError(f"unknown move kind {kind!r}")
        self = tuple.__new__(cls, (kind, i, j, i2, j2))
        if not ok:
            raise TriangleIndexError(f"invalid indices for {self!s}")
        return self

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
        """The positions this move flips, in pattern order."""
        kind, i, j, i2, j2 = self
        if kind == POINT:
            return ((i, j),)
        if kind == HORIZONTAL:
            return ((i, j), (i, j2))
        if kind == VERTICAL:
            return ((i, j), (i2, j))
        return ((i, j), (i, j2), (i2, j), (i2, j2))

    def required_signs(self) -> tuple[int, ...]:
        """Signs the scheme must show at touched_positions() for this move."""
        return _REQUIRED_SIGNS[self[0]]

    def __str__(self) -> str:
        kind, i, j, i2, j2 = self
        name = _KIND_NAMES[kind]
        if kind == POINT:
            return f"{name}({i};{j})"
        if kind == HORIZONTAL:
            return f"{name}({i};{j},{j2})"
        if kind == VERTICAL:
            return f"{name}({i},{i2};{j})"
        return f"{name}({i},{i2};{j},{j2})"

    def to_obj(self) -> dict:
        """Plain dict for JSON serialization; unused indices are omitted."""
        kind, i, j, i2, j2 = self
        obj = {"kind": kind, "i": i}
        if i2 is not None:
            obj["i2"] = i2
        obj["j"] = j
        if j2 is not None:
            obj["j2"] = j2
        return obj

    @classmethod
    def from_obj(cls, obj) -> "Move":
        if not isinstance(obj, dict):
            raise DomainError(f"move must be an object, got {type(obj).__name__}")
        if not obj.keys() <= _FIELDS:
            raise DomainError(f"unknown move fields: {sorted(set(obj) - _FIELDS)}")
        get = obj.get
        return cls(get("kind"), get("i"), get("j"), get("i2"), get("j2"))


def pattern_mismatch(scheme: Scheme, move: Move):
    """First position where scheme disagrees with the move's pattern, or None.

    Returns (position, required_sign, found_sign).
    """
    for pos, req in zip(move.touched_positions(), move.required_signs()):
        found = scheme.sign(*pos)
        if found != req:
            return pos, req, found
    return None


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
        if not {*map(type, self.moves)} <= {Move}:  # a subclass takes the loop
            for m in self.moves:
                if not isinstance(m, Move):
                    raise DomainError(f"certificate moves must be Move, got {m!r}")

    @property
    def n(self) -> int:
        return len(self.eps)


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "n": cert.n,
        "eps": list(cert.eps),
        "moves": [m.to_obj() for m in cert.moves],
    }


# Per kind, the JSON text of one move and its index fields in key order.
# %d prints an int subclass as int.__repr__ does, as json.dumps does.
_MOVE_JSON = {
    POINT: ('{"kind":"P","i":%d,"j":%d}', itemgetter(1, 2)),
    HORIZONTAL: ('{"kind":"H","i":%d,"j":%d,"j2":%d}', itemgetter(1, 2, 4)),
    VERTICAL: ('{"kind":"V","i":%d,"i2":%d,"j":%d}', itemgetter(1, 3, 2)),
    SQUARE: ('{"kind":"S","i":%d,"i2":%d,"j":%d,"j2":%d}', itemgetter(1, 3, 2, 4)),
}


def certificate_to_json(cert: Certificate) -> str:
    """Compact JSON, equal byte for byte to json.dumps of certificate_to_obj."""
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
                f"certificate says n={n} but eps has length {len(eps)}"
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
    """Parse certificate JSON text (str, bytes or bytearray)."""
    if not isinstance(text, (str, bytes, bytearray)):
        got = type(text).__name__
        raise DomainError(
            f"certificate JSON must be str, bytes or bytearray, got {got}"
        )
    return certificate_from_obj(json.loads(text))
