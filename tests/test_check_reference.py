"""Certificate parsing and checking against straightforward reference code.

_reference_move_from_obj, _reference_certificate_from_obj and
_reference_check are the earlier parser and checker: set arithmetic on
the field names, one isinstance test per field, separate list-building
passes for the range, overlap and precondition tests, and a residual
scan that calls reference_sign for every cell. The package parses with
a single read of each field and checks with one pass over each move's
positions and row-level comparisons; both must give equal certificates
and equal reports, or raise the same error with the same message.

One deliberate difference is written into the reference: the earlier
parser tested 'i' and 'j' for presence only, so a JSON null there went
on to the Move constructor and raised a bare TypeError (or, for kinds
missing i2/j2, a TriangleIndexError). Both parsers now report a null
'i' or 'j' as a missing field.
"""

import collections
import copy
import json
import pickle
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signschemes import (
    MINUS,
    PLUS,
    Certificate,
    CheckReport,
    DimensionError,
    DomainError,
    Move,
    TriangleIndexError,
    all_sign_vectors,
    as_sign_vector,
    build_certificate,
    certificate_from_json,
    certificate_from_obj,
    certificate_to_json,
    check_certificate,
    generate_scheme,
    reference_sign,
    sign_char,
)
from signschemes.moves import _KINDS

TEST_SETTINGS = settings(max_examples=400, deadline=None)

ALLOWED = (DomainError, DimensionError, TriangleIndexError)


def _reference_move_from_obj(obj):
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
    if obj.get("i") is None or obj.get("j") is None:  # was: "i" not in obj ...
        raise DomainError("move needs fields 'i' and 'j'")
    return Move(kind, obj["i"], obj["j"], i2=obj.get("i2"), j2=obj.get("j2"))


def _reference_certificate_from_obj(obj):
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
    return Certificate(eps, tuple(_reference_move_from_obj(m) for m in raw_moves))


def _reference_check(eps, cert):
    eps = as_sign_vector(eps)
    n = len(eps)
    if cert.n != n:
        raise DimensionError(f"certificate is for n={cert.n}, input has n={n}")
    failures = []
    source_matches = cert.eps == eps
    if not source_matches:
        failures.append("certificate sign vector differs from the input vector")
    grid = [list(row) for row in generate_scheme(eps).rows]
    seen = set()
    disjoint = True
    preconditions_ok = True
    for idx, move in enumerate(cert.moves):
        positions = move.touched_positions()
        out_of_range = [p for p in positions if not (1 <= p[0] <= p[1] <= n)]
        if out_of_range:
            preconditions_ok = False
            failures.append(
                f"move {idx} {move}: position {out_of_range[0]} outside triangle"
            )
            continue
        overlap = [p for p in positions if p in seen]
        if overlap:
            disjoint = False
            failures.append(
                f"move {idx} {move}: position {overlap[0]} already touched"
            )
        seen.update(positions)
        mismatch = None
        for pos, req in zip(positions, move.required_signs()):
            found = grid[pos[0] - 1][pos[1] - pos[0]]
            if found != req:
                mismatch = (pos, req, found)
                break
        if mismatch is not None:
            pos, req, found = mismatch
            preconditions_ok = False
            failures.append(
                f"move {idx} {move}: needs '{sign_char(req)}' at {pos}, "
                f"found '{sign_char(found)}'"
            )
            continue
        for pos in positions:
            grid[pos[0] - 1][pos[1] - pos[0]] *= -1
    residual = tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
        if grid[i - 1][j - i] != reference_sign(i, j)
    )
    return CheckReport(
        eps=eps,
        source_matches=source_matches,
        disjoint=disjoint,
        preconditions_ok=preconditions_ok,
        final_is_reference=not residual,
        residual_wrong=residual,
        failures=tuple(failures),
    )


def _outcome(fn, *args):
    """("ok", value), or (exception type, message) for a typed error.

    Any other exception escapes and fails the test.
    """
    try:
        return "ok", fn(*args)
    except ALLOWED as exc:
        return type(exc), str(exc)


def _assert_same(text, check_vectors):
    """Parse text both ways, then check the parsed certificate both ways.

    Returns the failure messages of the package's reports.
    """
    new = _outcome(certificate_from_json, text)
    assert new == _outcome(_reference_certificate_from_obj, json.loads(text)), text
    if new[0] != "ok":
        return []
    cert = new[1]
    assert all(type(m) is Move for m in cert.moves)
    failures = []
    for eps in check_vectors:
        report = _outcome(check_certificate, eps, cert)
        assert report == _outcome(_reference_check, eps, cert), (text, eps)
        if report[0] == "ok":
            failures.extend(report[1].failures)
    return failures


def test_parse_and_check_match_reference_up_to_ten():
    accepted = 0
    for n in range(1, 11):
        for eps in all_sign_vectors(n):
            text = certificate_to_json(build_certificate(eps))
            cert = certificate_from_json(text)
            report = check_certificate(eps, cert)
            assert cert == _reference_certificate_from_obj(json.loads(text))
            assert report == _reference_check(eps, cert)
            accepted += report.accepted
    assert accepted == 2046


def test_residual_matches_reference_on_foreign_vectors():
    # every certificate replayed from other vectors of its size: failures
    # and residual sets of all shapes
    rng = random.Random(17)
    for n in (1, 2, 5, 9, 16, 33, 64, 128):
        vectors = [tuple(rng.choice((PLUS, MINUS)) for _ in range(n)) for _ in range(6)]
        for eps in vectors:
            cert = build_certificate(eps)
            for other in vectors:
                assert check_certificate(other, cert) == _reference_check(other, cert)


def test_flipping_one_cell_leaves_rows_of_the_same_prefix_sign_alone():
    # the all-minus vector generates the target, and its rows 1, 3, 5, 7
    # (and 2, 4, 6, 8) start with the same prefix sign: the checker's rows
    # must be separate lists, or one flip shows up in several rows
    eps = (MINUS,) * 8
    cert = Certificate(eps, (Move.point(3, 6),))
    report = check_certificate(eps, cert)
    assert report == _reference_check(eps, cert)
    assert report.preconditions_ok and not report.accepted
    assert report.residual_wrong == ((3, 6),)


def _case(name, eps, moves, *failures):
    return pytest.param(eps, moves, failures, id=name)


# One move of each kind on n = 4 and, per kind, each way the replay can
# treat it: outside the triangle at j (and at j2), an overlap whose pattern
# still holds, so the move flips the shared cells back, an overlap that
# also mismatches, an overlap at each later corner alone, and a first
# mismatch at each corner of the pattern. A generated scheme has
# C[i,j]*C[i2,j2] = C[i,j2]*C[i2,j], so Square's last corner is the first
# mismatch only after an earlier move flipped a cell.
_P, _H = Move.point(2, 3), Move.horizontal(1, 2, 4)
_V, _S = Move.vertical(1, 3, 3), Move.square(1, 2, 3, 4)
_ALL_PLUS = (PLUS,) * 4
_KIND_CASES = (
    _case(
        "P-outside-j",
        _ALL_PLUS,
        (_P, Move.point(1, 5)),
        "move 1 Point(1;5): position (1, 5) outside triangle",
    ),
    _case(
        "P-overlap",
        (PLUS, PLUS, MINUS, PLUS),
        (Move.horizontal(2, 2, 3), _P),
        "move 1 Point(2;3): position (2, 3) already touched",
    ),
    _case(
        "P-overlap-mismatch",
        _ALL_PLUS,
        (_P, _P),
        "move 1 Point(2;3): position (2, 3) already touched",
        "move 1 Point(2;3): needs '+' at (2, 3), found '-'",
    ),
    _case(
        "P-mismatch-i-j",
        (PLUS, PLUS, MINUS, PLUS),
        (_P,),
        "move 0 Point(2;3): needs '+' at (2, 3), found '-'",
    ),
    _case(
        "H-outside-j",
        _ALL_PLUS,
        (Move.horizontal(1, 5, 6),),
        "move 0 Horizontal(1;5,6): position (1, 5) outside triangle",
    ),
    _case(
        "H-outside-j2",
        _ALL_PLUS,
        (Move.horizontal(2, 3, 5), _P),
        "move 0 Horizontal(2;3,5): position (2, 5) outside triangle",
    ),
    _case(
        "H-overlap",
        _ALL_PLUS,
        (Move.point(1, 4), _H),
        "move 1 Horizontal(1;2,4): position (1, 4) already touched",
    ),
    _case(
        "H-overlap-mismatch",
        (PLUS, PLUS, PLUS, MINUS),
        (_H, _H),
        "move 1 Horizontal(1;2,4): position (1, 2) already touched",
        "move 1 Horizontal(1;2,4): needs '+' at (1, 2), found '-'",
    ),
    _case(
        "H-mismatch-i-j",
        (PLUS, MINUS, PLUS, PLUS),
        (_H,),
        "move 0 Horizontal(1;2,4): needs '+' at (1, 2), found '-'",
    ),
    _case(
        "H-mismatch-i-j2",
        _ALL_PLUS,
        (_H,),
        "move 0 Horizontal(1;2,4): needs '-' at (1, 4), found '+'",
    ),
    _case(
        "V-outside-j",
        _ALL_PLUS,
        (Move.vertical(1, 2, 5),),
        "move 0 Vertical(1,2;5): position (1, 5) outside triangle",
    ),
    _case(
        "V-overlap",
        _ALL_PLUS,
        (Move.point(1, 3), _V),
        "move 1 Vertical(1,3;3): position (1, 3) already touched",
    ),
    _case(
        "V-overlap-mismatch",
        (PLUS, MINUS, PLUS, PLUS),
        (_V, _V),
        "move 1 Vertical(1,3;3): position (1, 3) already touched",
        "move 1 Vertical(1,3;3): needs '-' at (1, 3), found '+'",
    ),
    _case(
        "V-overlap-i2-j",
        _ALL_PLUS,
        (Move.point(3, 3), _V),
        "move 1 Vertical(1,3;3): position (3, 3) already touched",
        "move 1 Vertical(1,3;3): needs '-' at (1, 3), found '+'",
    ),
    _case(
        "V-mismatch-i-j",
        _ALL_PLUS,
        (_V,),
        "move 0 Vertical(1,3;3): needs '-' at (1, 3), found '+'",
    ),
    _case(
        "V-mismatch-i2-j",
        (PLUS, PLUS, MINUS, PLUS),
        (_V,),
        "move 0 Vertical(1,3;3): needs '+' at (3, 3), found '-'",
    ),
    _case(
        "S-outside-j",
        _ALL_PLUS,
        (Move.square(1, 2, 5, 6),),
        "move 0 Square(1,2;5,6): position (1, 5) outside triangle",
    ),
    _case(
        "S-outside-j2",
        _ALL_PLUS,
        (_P, Move.square(1, 3, 4, 5)),
        "move 1 Square(1,3;4,5): position (1, 5) outside triangle",
    ),
    _case(
        "S-overlap",
        (PLUS, PLUS, PLUS, MINUS),
        (Move.horizontal(1, 3, 4), _S),
        "move 1 Square(1,2;3,4): position (1, 3) already touched",
    ),
    _case(
        "S-overlap-mismatch",
        (MINUS, PLUS, PLUS, MINUS),
        (_S, _S),
        "move 1 Square(1,2;3,4): position (1, 3) already touched",
        "move 1 Square(1,2;3,4): needs '-' at (1, 3), found '+'",
    ),
    *(
        _case(
            f"S-overlap-{at}",
            _ALL_PLUS,
            (Move.point(*pos), _S),
            f"move 1 Square(1,2;3,4): position {pos} already touched",
            "move 1 Square(1,2;3,4): needs '-' at (1, 3), found '+'",
        )
        for at, pos in (("i-j2", (1, 4)), ("i2-j", (2, 3)), ("i2-j2", (2, 4)))
    ),
    _case(
        "S-mismatch-i-j",
        _ALL_PLUS,
        (_S,),
        "move 0 Square(1,2;3,4): needs '-' at (1, 3), found '+'",
    ),
    _case(
        "S-mismatch-i-j2",
        (PLUS, PLUS, MINUS, PLUS),
        (_S,),
        "move 0 Square(1,2;3,4): needs '+' at (1, 4), found '-'",
    ),
    _case(
        "S-mismatch-i2-j",
        (PLUS, PLUS, MINUS, MINUS),
        (_S,),
        "move 0 Square(1,2;3,4): needs '+' at (2, 3), found '-'",
    ),
    _case(
        "S-mismatch-i2-j2",
        _ALL_PLUS,
        (Move.point(1, 3), _S),
        "move 1 Square(1,2;3,4): position (1, 3) already touched",
        "move 1 Square(1,2;3,4): needs '-' at (2, 4), found '+'",
    ),
)


@pytest.mark.parametrize("eps, moves, failures", _KIND_CASES)
def test_each_move_kind_matches_reference(eps, moves, failures):
    cert = Certificate(eps, moves)
    report = check_certificate(eps, cert)
    assert report == _reference_check(eps, cert)
    assert report.failures == failures


def test_every_single_index_change_matches_reference():
    # each index of each move set to every value from -1 to n+2: moves
    # that are invalid, outside the triangle, overlapping or misplaced
    cases = outside = 0
    for n in range(1, 6):
        for eps in all_sign_vectors(n):
            obj = json.loads(certificate_to_json(build_certificate(eps)))
            for move in obj["moves"]:
                for key in ("i", "i2", "j", "j2"):
                    if key not in move:
                        continue
                    saved = move[key]
                    for value in range(-1, n + 3):
                        move[key] = value
                        failures = _assert_same(json.dumps(obj), (eps,))
                        cases += 1
                        outside += any("outside triangle" in f for f in failures)
                    move[key] = saved
    assert cases == 4446 and outside > 300


# Values that replace a field: every JSON type, plus integers that are out
# of range for any triangle index.
SWAPS = (True, False, 1.5, "1", None, [1], {}, 0, -3, 10**20)
# a fresh copy per draw: later operations edit the drawn list or dict in place
SWAP_VALUES = st.sampled_from(SWAPS).map(copy.deepcopy)
MOVE_FIELDS = ("kind", "i", "i2", "j", "j2")
KINDS = ("P", "H", "V", "S", "X", "p")


@st.composite
def mutated_certificates(draw):
    n = draw(st.integers(1, 12))
    eps = tuple(draw(st.lists(st.sampled_from((PLUS, MINUS)), min_size=n, max_size=n)))
    obj = json.loads(certificate_to_json(build_certificate(eps)))
    moves = obj["moves"]
    for _ in range(draw(st.integers(1, 4))):
        op = draw(
            st.sampled_from(
                (
                    "drop",
                    "duplicate",
                    "swap",
                    "reverse",
                    "retarget",
                    "outside",
                    "kind",
                    "field_type",
                    "drop_field",
                    "extra_field",
                    "move_type",
                    "top_type",
                    "eps_entry",
                )
            )
        )
        idx = draw(st.integers(0, max(len(moves) - 1, 0)))
        if op == "drop" and moves:
            del moves[idx]
        elif op == "duplicate" and moves:
            moves.insert(draw(st.integers(0, len(moves))), copy.deepcopy(moves[idx]))
        elif op == "swap" and moves:
            other = draw(st.integers(0, len(moves) - 1))
            moves[idx], moves[other] = moves[other], moves[idx]
        elif op == "reverse":
            moves.reverse()
        elif op == "retarget" and moves and isinstance(moves[idx], dict):
            moves[idx][draw(st.sampled_from(("i", "i2", "j", "j2")))] = draw(
                st.integers(1, n)
            )
        elif op == "outside" and moves and isinstance(moves[idx], dict):
            key = draw(st.sampled_from(("i", "i2", "j", "j2")))
            moves[idx][key] = draw(st.sampled_from((0, -1, n + 1, n + 2, n + 5)))
        elif op == "kind" and moves and isinstance(moves[idx], dict):
            moves[idx]["kind"] = draw(st.sampled_from(KINDS))
        elif op == "field_type" and moves and isinstance(moves[idx], dict):
            moves[idx][draw(st.sampled_from(MOVE_FIELDS))] = draw(SWAP_VALUES)
        elif op == "drop_field" and moves and isinstance(moves[idx], dict):
            moves[idx].pop(draw(st.sampled_from(MOVE_FIELDS)), None)
        elif op == "extra_field" and moves and isinstance(moves[idx], dict):
            moves[idx][draw(st.sampled_from(("extra", "I", "k")))] = 1
        elif op == "move_type" and moves:
            moves[idx] = draw(SWAP_VALUES)
        elif op == "top_type":
            obj[draw(st.sampled_from(("n", "eps", "moves")))] = draw(SWAP_VALUES)
        elif op == "eps_entry" and isinstance(obj.get("eps"), list) and obj["eps"]:
            pos = draw(st.integers(0, len(obj["eps"]) - 1))
            entries = st.sampled_from(SWAPS + (-1, 1, 2)).map(copy.deepcopy)
            obj["eps"][pos] = draw(entries)
        if not isinstance(obj.get("moves"), list):
            break
    other = tuple(draw(st.lists(st.sampled_from((PLUS, MINUS)), min_size=n, max_size=n)))
    return json.dumps(obj), (eps, other, eps[:-1] or (PLUS, PLUS))


@TEST_SETTINGS
@given(mutated_certificates())
def test_mutated_certificates_match_reference(case):
    text, check_vectors = case
    _assert_same(text, check_vectors)


_P11 = {"kind": "P", "i": 1, "j": 1}


def _parse_case(name, moves, outcome):
    return pytest.param({"eps": [1, 1], "moves": moves}, outcome, id=name)


# certificate_from_obj checks the keys of all moves at once and builds each
# move from its fields by position; on an unknown key or a move that is not
# a plain dict, it parses the moves with Move.from_obj instead; either way
# the first bad move names the error
_PARSE_CASES = (
    _parse_case("non-dict", [5], (DomainError, "move must be an object, got int")),
    _parse_case(
        "unknown-field",
        [dict(_P11, extra=0)],
        (DomainError, "unknown move fields: ['extra']"),
    ),
    _parse_case(
        "cls-field", [dict(_P11, cls=0)], (DomainError, "unknown move fields: ['cls']")
    ),
    _parse_case(
        "missing-kind", [{"i": 1, "j": 1}], (DomainError, "unknown move kind None")
    ),
    _parse_case(
        "missing-i",
        [{"kind": "P", "j": 1}],
        (DomainError, "move needs fields 'i' and 'j'"),
    ),
    _parse_case(
        "bool-index",
        [dict(_P11, i=True)],
        (DomainError, "move field 'i' must be an integer"),
    ),
    _parse_case("null-i2-on-point", [dict(_P11, i2=None)], "ok"),
    _parse_case(
        "bad-kind-before-non-dict",
        [dict(_P11, kind="X"), 5],
        (DomainError, "unknown move kind 'X'"),
    ),
    _parse_case(
        "non-dict-after-valid",
        [_P11, 5],
        (DomainError, "move must be an object, got int"),
    ),
    _parse_case(
        "bad-range-before-missing-j",
        [dict(_P11, i=2), {"kind": "P", "i": 1}],
        (TriangleIndexError, "invalid indices for Point(2;1)"),
    ),
    _parse_case(
        "missing-j-before-bad-range",
        [{"kind": "P", "i": 1}, dict(_P11, i=2)],
        (DomainError, "move needs fields 'i' and 'j'"),
    ),
    _parse_case(
        "bad-range-before-unknown-field",
        [dict(_P11, i=2), dict(_P11, extra=0)],
        (TriangleIndexError, "invalid indices for Point(2;1)"),
    ),
    _parse_case(
        "unknown-field-after-valid",
        [_P11, {"kind": "P", "i": 1, "j": 2}, dict(_P11, extra=0)],
        (DomainError, "unknown move fields: ['extra']"),
    ),
)


@pytest.mark.parametrize("obj, outcome", _PARSE_CASES)
def test_parse_fallback_matches_reference(obj, outcome):
    new = _outcome(certificate_from_obj, obj)
    assert new == _outcome(_reference_certificate_from_obj, obj)
    assert new == _outcome(certificate_from_json, json.dumps(obj))
    assert (new[0] if new[0] == "ok" else new) == outcome


def test_parse_takes_plain_dicts_only():
    # ** would accept any mapping; a move must still be a dict, and a dict
    # subclass is still one
    proxy = types.MappingProxyType(_P11)
    obj = {"eps": [1], "moves": [_P11, proxy]}
    new = _outcome(certificate_from_obj, obj)
    assert new == (DomainError, "move must be an object, got mappingproxy")
    assert new == _outcome(_reference_certificate_from_obj, obj)
    obj = {"eps": [1], "moves": [_P11, collections.OrderedDict(_P11)]}
    assert certificate_from_obj(obj) == _reference_certificate_from_obj(obj)


def test_target_rows_match_reference_sign_up_to_forty():
    # the builder and the checker each write the target's first row as an
    # alternating list; _reference_check calls reference_sign per cell
    rng = random.Random(40)
    for n in range(1, 41):
        rand = tuple(rng.choice((PLUS, MINUS)) for _ in range(n))
        for eps in ((MINUS,) * n, (PLUS,) * n, rand):
            empty = Certificate(eps, ())
            assert check_certificate(eps, empty) == _reference_check(eps, empty)
            cert = build_certificate(eps)
            report = check_certificate(eps, cert)
            assert report.accepted and report == _reference_check(eps, cert)


def test_move_is_immutable():
    mv = Move.square(1, 4, 4, 5)
    for name in ("kind", "i", "j", "i2", "j2", "other"):
        with pytest.raises(AttributeError):
            setattr(mv, name, 3)
    assert mv == Move.square(1, 4, 4, 5)


def test_move_hash_and_equality():
    a, b = Move.vertical(1, 3, 4), Move.vertical(1, 3, 4)
    assert a == b and not a != b and hash(a) == hash(b)
    # the hash a frozen dataclass with these fields would have
    assert hash(a) == hash(("V", 1, 4, 3, None))
    assert a != Move.vertical(1, 2, 4) and not a == Move.vertical(1, 2, 4)
    assert len({a, b, Move.point(1, 4)}) == 2


def test_move_never_equals_a_plain_tuple():
    for mv in (Move.point(1, 7), Move.horizontal(1, 1, 2), Move.square(1, 4, 4, 5)):
        plain = tuple(mv)
        assert plain == (mv.kind, mv.i, mv.j, mv.i2, mv.j2)
        assert mv != plain and plain != mv
        assert not mv == plain and not plain == mv
        assert plain not in {mv} and mv not in {plain}
        assert mv not in [plain] and plain not in [mv]


def test_move_str_and_repr():
    assert str(Move.point(1, 7)) == "Point(1;7)"
    assert str(Move.square(1, 4, 4, 5)) == "Square(1,4;4,5)"
    assert repr(Move.point(1, 7)) == "Move(kind='P', i=1, j=7, i2=None, j2=None)"
    assert repr(Move.horizontal(1, 1, 2)) == "Move(kind='H', i=1, j=1, i2=None, j2=2)"
    assert repr(Move.square(1, 4, 4, 5)) == "Move(kind='S', i=1, j=4, i2=4, j2=5)"
    assert f"{Move.vertical(5, 6, 6)}" == "Vertical(5,6;6)"


def test_move_copies_and_pickles():
    mv = Move.square(1, 4, 4, 5)
    for clone in (copy.copy(mv), copy.deepcopy(mv), pickle.loads(pickle.dumps(mv))):
        assert type(clone) is Move and clone == mv
