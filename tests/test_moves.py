"""Move validation, application, and certificate serialization."""

import enum
import itertools
import json
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signschemes import (
    MINUS,
    PLUS,
    Certificate,
    DimensionError,
    DomainError,
    InvalidMoveError,
    Move,
    Scheme,
    TriangleIndexError,
    all_sign_vectors,
    apply_move,
    build_certificate,
    certificate_from_json,
    certificate_from_obj,
    certificate_to_json,
    certificate_to_obj,
    check_certificate,
    generate_scheme,
    pattern_mismatch,
)
from signschemes.moves import _KINDS, _MOVE_JSON, HORIZONTAL, POINT, SQUARE, VERTICAL

TEST_SETTINGS = settings(max_examples=200, deadline=None)

FIVE = (1, 1, -1, 1, -1)

WORKED = (1, -1, 1, 1, -1, 1, 1)
WORKED_MOVES = (
    Move.horizontal(1, 1, 2),
    Move.square(2, 3, 3, 6),
    Move.square(1, 4, 4, 5),
    Move.vertical(5, 6, 6),
    Move.vertical(4, 7, 7),
    Move.point(1, 7),
)
WORKED_JSON = (
    '{"n":7,"eps":[1,-1,1,1,-1,1,1],"moves":['
    '{"kind":"H","i":1,"j":1,"j2":2},'
    '{"kind":"S","i":2,"i2":3,"j":3,"j2":6},'
    '{"kind":"S","i":1,"i2":4,"j":4,"j2":5},'
    '{"kind":"V","i":5,"i2":6,"j":6},'
    '{"kind":"V","i":4,"i2":7,"j":7},'
    '{"kind":"P","i":1,"j":7}]}'
)


def test_move_str_forms():
    assert str(Move.point(1, 7)) == "Point(1;7)"
    assert str(Move.horizontal(1, 1, 2)) == "Horizontal(1;1,2)"
    assert str(Move.vertical(5, 6, 6)) == "Vertical(5,6;6)"
    assert str(Move.square(1, 4, 4, 5)) == "Square(1,4;4,5)"


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Move.point(2, 1),
        lambda: Move.horizontal(1, 3, 2),
        lambda: Move.horizontal(1, 3, 3),
        lambda: Move.vertical(2, 2, 3),
        lambda: Move.vertical(1, 4, 3),
        lambda: Move.square(2, 2, 3, 4),
        lambda: Move.square(1, 3, 2, 4),
        lambda: Move.square(1, 2, 4, 4),
        lambda: Move("P", 1, 2, i2=3),
        lambda: Move("H", 1, 2),
    ],
)
def test_invalid_indices_rejected(bad):
    with pytest.raises(TriangleIndexError):
        bad()


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        Move("X", 1, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Move.point(1, 2.0), "move field 'j' must be an integer"),
        (lambda: Move("P", None, 2), "move needs fields 'i' and 'j'"),
        (lambda: Move.point(True, 2), "move field 'i' must be an integer"),
        (lambda: Move.vertical(1, np.int64(2), 3), "move field 'i2' must be an integer"),
        (lambda: Move("X", 1.5, None), "unknown move kind 'X'"),
        (lambda: Move("S", 1, None, 2.5, 4), "move field 'i2' must be an integer"),
    ],
)
def test_constructor_rejects_bad_fields(build, message):
    with pytest.raises(DomainError, match=message):
        build()


_INDEX = (int, type(None))  # exact types of an index that needs no type check


def _reference_move(kind, i, j, i2=None, j2=None):
    """Move.__new__ before its fast path: every check, in order, every time."""
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
    self = tuple.__new__(Move, (kind, i, j, i2, j2))
    if not ok:
        raise TriangleIndexError(f"invalid indices for {self!s}")
    return self


def _made(fn, *args):
    """(Move, repr), or (exception type, message)."""
    try:
        move = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return move, repr(move)


def test_constructor_matches_reference_on_every_field_combination():
    # the fast path must accept exactly what the full checks accept, and
    # leave every rejection to them
    kinds = (POINT, HORIZONTAL, VERTICAL, SQUARE, "X", None)
    values = (None, 0, 1, 2, 3, 5, True, 2.0, "1", _Index.TWO, np.int64(2))
    accepted = 0
    for kind in kinds:
        for i, j, i2, j2 in itertools.product(values, repeat=4):
            args = (kind, i, j, i2, j2)
            made = _made(Move, *args)
            assert made == _made(_reference_move, *args), args
            accepted += type(made[0]) is Move
    # 16 Points, 20 Horizontals, 18 Verticals and 13 Squares, counting
    # those with an IntEnum index
    assert accepted == 67


# Move's per-kind layout before the layout table, copied as it was
_REFERENCE_KIND_NAMES = {
    POINT: "Point",
    HORIZONTAL: "Horizontal",
    VERTICAL: "Vertical",
    SQUARE: "Square",
}

_REFERENCE_REQUIRED_SIGNS = {
    POINT: (PLUS,),
    HORIZONTAL: (PLUS, MINUS),
    VERTICAL: (MINUS, PLUS),
    SQUARE: (MINUS, PLUS, PLUS, MINUS),
}

_REFERENCE_MOVE_JSON = {
    POINT: ('{"kind":"P","i":%d,"j":%d}', operator.itemgetter(1, 2)),
    HORIZONTAL: ('{"kind":"H","i":%d,"j":%d,"j2":%d}', operator.itemgetter(1, 2, 4)),
    VERTICAL: ('{"kind":"V","i":%d,"i2":%d,"j":%d}', operator.itemgetter(1, 3, 2)),
    SQUARE: (
        '{"kind":"S","i":%d,"i2":%d,"j":%d,"j2":%d}',
        operator.itemgetter(1, 3, 2, 4),
    ),
}


def _reference_touched_positions(self):
    kind, i, j, i2, j2 = self
    if kind == POINT:
        return ((i, j),)
    if kind == HORIZONTAL:
        return ((i, j), (i, j2))
    if kind == VERTICAL:
        return ((i, j), (i2, j))
    return ((i, j), (i, j2), (i2, j), (i2, j2))


def _reference_str(self):
    kind, i, j, i2, j2 = self
    name = _REFERENCE_KIND_NAMES[kind]
    if kind == POINT:
        return f"{name}({i};{j})"
    if kind == HORIZONTAL:
        return f"{name}({i};{j},{j2})"
    if kind == VERTICAL:
        return f"{name}({i},{i2};{j})"
    return f"{name}({i},{i2};{j},{j2})"


def _reference_to_obj(self):
    kind, i, j, i2, j2 = self
    obj = {"kind": kind, "i": i}
    if i2 is not None:
        obj["i2"] = i2
    obj["j"] = j
    if j2 is not None:
        obj["j2"] = j2
    return obj


def _valid_move_args(n):
    """(kind, i, j, i2, j2) of every valid move with indices <= n."""
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            yield POINT, i, j, None, None
            for j2 in range(j + 1, n + 1):
                yield HORIZONTAL, i, j, None, j2
            for i2 in range(i + 1, j + 1):
                yield VERTICAL, i, j, i2, None
                for j2 in range(j + 1, n + 1):
                    yield SQUARE, i, j, i2, j2


_SEVEN = enum.IntEnum("_Seven", [(f"I{k}", k) for k in range(1, 8)])


def _layout(move):
    """Everything a move's layout decides, as comparable values."""
    template, fields = _MOVE_JSON[move[0]]
    return (
        move.touched_positions(),
        move.required_signs(),
        str(move),
        list(move.to_obj().items()),
        template % fields(move),
    )


def _reference_layout(move):
    template, fields = _REFERENCE_MOVE_JSON[move[0]]
    return (
        _reference_touched_positions(move),
        _REFERENCE_REQUIRED_SIGNS[move[0]],
        _reference_str(move),
        list(_reference_to_obj(move).items()),
        template % fields(move),
    )


def test_layout_matches_reference():
    # the layout table must give what the per-kind code gave, in the same
    # order and with the same JSON key order, for plain and IntEnum indices
    moves = []
    for kind, *indices in _valid_move_args(7):
        moves.append(Move(kind, *indices))
        moves.append(Move(kind, *(v if v is None else _SEVEN(v) for v in indices)))
    for move in moves:
        assert _layout(move) == _reference_layout(move), move
    # 28 Points, 56 Horizontals, 56 Verticals and 70 Squares, twice
    assert len(moves) == 420


def test_touched_positions_and_required_signs():
    assert Move.point(2, 4).touched_positions() == ((2, 4),)
    assert Move.point(2, 4).required_signs() == (PLUS,)
    assert Move.horizontal(1, 2, 5).touched_positions() == ((1, 2), (1, 5))
    assert Move.horizontal(1, 2, 5).required_signs() == (PLUS, MINUS)
    assert Move.vertical(1, 3, 4).touched_positions() == ((1, 4), (3, 4))
    assert Move.vertical(1, 3, 4).required_signs() == (MINUS, PLUS)
    sq = Move.square(1, 2, 3, 4)
    assert sq.touched_positions() == ((1, 3), (1, 4), (2, 3), (2, 4))
    assert sq.required_signs() == (MINUS, PLUS, PLUS, MINUS)
    assert frozenset(sq.touched_positions()) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_apply_point():
    scheme = generate_scheme(FIVE)
    assert pattern_mismatch(scheme, Move.point(1, 1)) is None
    out = apply_move(scheme, Move.point(1, 1))
    assert out.sign(1, 1) == MINUS
    # only the touched position changed
    diffs = [p for p in scheme.positions() if out.sign(*p) != scheme.sign(*p)]
    assert diffs == [(1, 1)]


def test_apply_horizontal_two_dim():
    scheme = generate_scheme((1, -1))
    assert scheme.rows == ((1, -1), (-1,))
    out = apply_move(scheme, Move.horizontal(1, 1, 2))
    assert out.rows == ((-1, 1), (-1,))


def test_apply_square():
    # this generator shows the square pattern at rows (1,2), columns (3,4)
    scheme = generate_scheme((-1, 1, 1, -1))
    mv = Move.square(1, 2, 3, 4)
    assert pattern_mismatch(scheme, mv) is None
    out = apply_move(scheme, mv)
    assert out.rows == ((-1, -1, 1, -1), (1, -1, 1), (1, -1), (-1,))


def test_apply_square_on_five():
    scheme = generate_scheme(FIVE)
    mv = Move.square(3, 4, 4, 5)
    assert pattern_mismatch(scheme, mv) is None
    out = apply_move(scheme, mv)
    for pos in mv.touched_positions():
        assert out.sign(*pos) == -scheme.sign(*pos)


def test_apply_rejects_pattern_mismatch():
    scheme = generate_scheme(FIVE)
    with pytest.raises(InvalidMoveError) as exc:
        apply_move(scheme, Move.point(1, 3))
    assert exc.value.position == (1, 3)
    assert exc.value.expected == "+"
    assert exc.value.found == "-"
    assert "Point(1;3) requires '+' at (1, 3), found '-'" in str(exc.value)


def test_pattern_mismatch_reports_first_bad_position():
    scheme = generate_scheme(FIVE)
    pos, req, found = pattern_mismatch(scheme, Move.horizontal(1, 2, 5))
    assert pos == (1, 5) and req == MINUS and found == PLUS


def test_out_of_triangle_move_is_an_index_error_whatever_the_signs():
    # (1, 3) mismatches first, but (1, 4) lies outside the size-3 triangle
    scheme = generate_scheme((1, 1, 1))
    for call in (apply_move, pattern_mismatch):
        with pytest.raises(TriangleIndexError, match=r"\(1, 4\) outside"):
            call(scheme, Move.square(1, 2, 3, 4))
    with pytest.raises(TriangleIndexError, match=r"\(1, 4\) outside"):
        pattern_mismatch(scheme, Move.vertical(1, 2, 4))


def test_pattern_mismatch_reads_in_range_moves_without_position_checks(monkeypatch):
    calls = []
    check = Scheme.check_position

    def counting_check(self, i, j):
        calls.append((i, j))
        check(self, i, j)

    monkeypatch.setattr(Scheme, "check_position", counting_check)
    scheme = generate_scheme(FIVE)
    assert pattern_mismatch(scheme, Move.square(3, 4, 4, 5)) is None
    assert pattern_mismatch(scheme, Move.point(1, 3)) == ((1, 3), PLUS, MINUS)
    assert calls == []
    apply_move(scheme, Move.square(3, 4, 4, 5))
    assert calls == [(3, 4), (3, 5), (4, 4), (4, 5)]  # once each, in the flip


def test_double_flip_is_identity():
    scheme = generate_scheme(FIVE)
    mv = Move.square(3, 4, 4, 5)
    assert scheme.with_flipped(mv.touched_positions()).with_flipped(
        mv.touched_positions()
    ) == scheme


def test_certificate_json_golden():
    cert = Certificate(WORKED, WORKED_MOVES)
    assert certificate_to_json(cert) == WORKED_JSON
    assert certificate_from_json(WORKED_JSON) == cert
    assert certificate_from_json(WORKED_JSON.encode()) == cert
    assert certificate_from_json(bytearray(WORKED_JSON, "utf-8")) == cert


@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"eps":[1],"moves":[],"note":"\xe9"}', "can't decode byte 0xe9"),
        (b"\xff\xfe{", "truncated data"),
        ("{not json", "Expecting property name"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion"),
        ('{"eps":[1],"moves":[],"n":' + "9" * 5000 + "}", "Exceeds the limit"),
    ],
    ids=["latin-1 bytes", "truncated utf-16", "syntax", "nesting", "long integer"],
)
def test_certificate_from_json_decoder_errors_are_domain_errors(data, message):
    # json.loads raised these as UnicodeDecodeError, JSONDecodeError,
    # RecursionError and a plain ValueError
    with pytest.raises(DomainError, match=message) as exc:
        certificate_from_json(data)
    assert type(exc.value) is DomainError


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-be", "utf-32"])
def test_certificate_from_json_decodes_every_json_encoding(encoding):
    cert = Certificate(WORKED, WORKED_MOVES)
    assert certificate_from_json(WORKED_JSON.encode(encoding)) == cert


class _Index(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3
    FOUR = 4


def test_certificate_to_json_is_json_dumps_of_obj():
    # the writer fills per-kind templates; its text must be byte-equal to
    # json.dumps of certificate_to_obj and parse back to the certificate
    certs = [build_certificate(e) for n in range(1, 11) for e in all_sign_vectors(n)]
    rng = random.Random(11)
    sizes = [rng.randint(32, 128) for _ in range(200)]
    large = [build_certificate(rng.choices((PLUS, MINUS), k=n)) for n in sizes]
    assert {m.kind for cert in large for m in cert.moves} == {"P", "H", "V", "S"}
    one, two, three, four = _Index
    enum_moves = (
        Move.point(one, four),
        Move.horizontal(one, two, three),
        Move.vertical(one, two, three),
        Move.square(one, two, three, four),
    )
    certs += large + [Certificate(FIVE, enum_moves), Certificate(FIVE, ())]
    for cert in certs:
        text = certificate_to_json(cert)
        assert text == json.dumps(certificate_to_obj(cert), separators=(",", ":"))
        assert certificate_from_json(text) == cert


def test_certificate_obj_field_order():
    obj = certificate_to_obj(Certificate(WORKED, WORKED_MOVES))
    assert list(obj) == ["n", "eps", "moves"]
    assert list(obj["moves"][0]) == ["kind", "i", "j", "j2"]
    assert list(obj["moves"][1]) == ["kind", "i", "i2", "j", "j2"]
    assert list(obj["moves"][5]) == ["kind", "i", "j"]


def test_certificate_obj_errors():
    with pytest.raises(DomainError):
        certificate_from_obj([])
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1]})
    with pytest.raises(DimensionError):
        certificate_from_obj({"n": 3, "eps": [1, -1], "moves": []})
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1], "moves": [{"kind": "P", "i": 1}]})
    with pytest.raises(DomainError):
        certificate_from_obj(
            {"eps": [1], "moves": [{"kind": "P", "i": 1, "j": 1, "extra": 0}]}
        )
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1], "moves": [{"kind": "P", "i": "1", "j": 1}]})
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1], "moves": [{"kind": "P", "i": True, "j": 1}]})
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1], "moves": [{"kind": "Q", "i": 1, "j": 1}]})
    with pytest.raises(DomainError):
        certificate_from_obj({"eps": [1], "moves": 5})
    for eps in (None, 5, True):
        with pytest.raises(DomainError):
            certificate_from_obj({"eps": eps, "moves": []})
    # a null index is a missing field, not a bare TypeError from the
    # constructor (or a TriangleIndexError for a kind without i2/j2)
    for kind, field in (("P", "i"), ("P", "j"), ("S", "i"), ("V", "j")):
        move = {"kind": kind, "i": 1, "i2": 2, "j": 2, "j2": 3, field: None}
        with pytest.raises(DomainError, match="needs fields 'i' and 'j'"):
            certificate_from_obj({"eps": [1, 1, 1], "moves": [move]})
    with pytest.raises(DomainError):
        certificate_from_obj({"n": True, "eps": [1], "moves": []})
    with pytest.raises(DomainError):
        certificate_from_json('{"eps":[true],"moves":[]}')
    with pytest.raises(DomainError):
        certificate_from_json('{"eps":[1.0,-1],"moves":[]}')
    # only text is JSON: anything else is a DomainError, not json.loads'
    # bare TypeError
    for text in (5, None, {"eps": [1], "moves": []}, [b"{}"]):
        with pytest.raises(DomainError, match="must be str, bytes or bytearray"):
            certificate_from_json(text)


class _SubMove(Move):
    __slots__ = ()


def test_certificate_requires_moves():
    with pytest.raises(DomainError):
        Certificate((1,), ("not a move",))
    p11 = Move.point(1, 1)
    with pytest.raises(DomainError, match=r"^certificate moves must be Move, got 'x'$"):
        Certificate((1,), [p11, "x", tuple(p11)])
    with pytest.raises(DomainError, match=r"got \('P', 1, 1, None, None\)$"):
        Certificate((1,), [p11, tuple(p11)])
    # a subclass of Move is a Move
    sub = _SubMove("P", 1, 1)
    assert Certificate((1,), [sub, p11]).moves == (sub, p11)
    for moves in (None, 5, Move.point):
        with pytest.raises(DomainError, match="moves must be iterable"):
            Certificate((1,), moves)


def test_touched_disjoint():
    assert check_certificate(WORKED, Certificate(WORKED, WORKED_MOVES)).disjoint
    clashing = Certificate((1, 1), (Move.point(1, 1), Move.point(1, 1)))
    assert not check_certificate((1, 1), clashing).disjoint


@TEST_SETTINGS
@given(
    st.sampled_from(WORKED_MOVES),
)
def test_move_obj_roundtrip(move):
    assert Move.from_obj(move.to_obj()) == move


@TEST_SETTINGS
@given(st.data())
def test_applied_move_flips_exactly_touched(data):
    eps = data.draw(
        st.lists(st.sampled_from((PLUS, MINUS)), min_size=2, max_size=8).map(tuple)
    )
    scheme = generate_scheme(eps)
    n = len(eps)
    # enumerate applicable moves and apply one
    candidates = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            candidates.append(Move.point(i, j))
            for j2 in range(j + 1, n + 1):
                candidates.append(Move.horizontal(i, j, j2))
            for i2 in range(i + 1, j + 1):
                candidates.append(Move.vertical(i, i2, j))
                for j2 in range(j + 1, n + 1):
                    candidates.append(Move.square(i, i2, j, j2))
    applicable = [m for m in candidates if pattern_mismatch(scheme, m) is None]
    if not applicable:
        return
    mv = data.draw(st.sampled_from(applicable))
    out = apply_move(scheme, mv)
    touched = set(mv.touched_positions())
    for pos in scheme.positions():
        if pos in touched:
            assert out.sign(*pos) == -scheme.sign(*pos)
        else:
            assert out.sign(*pos) == scheme.sign(*pos)


def test_worked_json_parses_as_plain_json():
    obj = json.loads(WORKED_JSON)
    assert obj["n"] == 7 and len(obj["moves"]) == 6
