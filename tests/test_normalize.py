"""Certificate construction, the checker, and the step-by-step trace."""

import json
import random

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
    all_sign_vectors,
    build_certificate,
    certificate_to_json,
    certificate_to_obj,
    check_certificate,
    generate_scheme,
    is_reference,
    reference_sign,
    render_trace,
    report_to_json,
    trace_build,
    trace_to_obj,
    wrong_set,
)
from signschemes.normalize import (
    OP_LEVEL,
    OP_POINT,
    OP_SUBSTITUTE,
    OP_VERTICAL,
    _build,
)

TEST_SETTINGS = settings(max_examples=150, deadline=None)


# Each raised a bare TypeError, KeyError or AttributeError, or returned.
WRONG_TYPED_CALLS = {
    "report_to_json(5)": lambda: report_to_json(5),
    "report_to_json(CheckReport)": lambda: report_to_json(CheckReport),
    "render_trace(5)": lambda: render_trace(5),
    "trace_to_obj([0])": lambda: trace_to_obj([0]),
    "wrong_set(((1,),))": lambda: wrong_set(((1,),)),
    "is_reference(5)": lambda: is_reference(5),
    "certificate_to_json(5)": lambda: certificate_to_json(5),
    "certificate_to_obj(5)": lambda: certificate_to_obj(5),
}


@pytest.mark.parametrize("call", WRONG_TYPED_CALLS.values(), ids=WRONG_TYPED_CALLS)
def test_wrong_typed_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()

sign_vectors = st.lists(st.sampled_from((PLUS, MINUS)), min_size=1, max_size=10).map(
    tuple
)

WORKED = (1, -1, 1, 1, -1, 1, 1)
WORKED_MOVES = (
    Move.horizontal(1, 1, 2),
    Move.square(2, 3, 3, 6),
    Move.square(1, 4, 4, 5),
    Move.vertical(5, 6, 6),
    Move.vertical(4, 7, 7),
    Move.point(1, 7),
)
LEVEL_MOVES = {
    1: (Move.point(1, 1),),
    2: (Move.horizontal(1, 1, 2),),
    3: (Move.horizontal(1, 1, 2), Move.vertical(2, 3, 3)),
    4: (
        Move.horizontal(1, 1, 2),
        Move.vertical(2, 3, 3),
        Move.vertical(1, 4, 4),
    ),
    5: (
        Move.horizontal(1, 1, 2),
        Move.vertical(2, 3, 3),
        Move.square(1, 4, 4, 5),
    ),
    6: (
        Move.horizontal(1, 1, 2),
        Move.square(2, 3, 3, 6),
        Move.square(1, 4, 4, 5),
        Move.vertical(5, 6, 6),
    ),
    7: WORKED_MOVES,
}

GOLDEN_TRACE = """\
| +
L(1) = {Point(1;1)}

+ |[-]
  | -
L(2) = {Horizontal(1;1,2)}

+ - | -
  - |[-]
    | +
L(3) = {Horizontal(1;1,2), Vertical(2,3;3)}

+ - - |[-]
  - - | -
    + | +
      | +
L(4) = {Horizontal(1;1,2), Vertical(2,3;3), Vertical(1,4;4)}

+ - - - | +
  - - - | +
    + + | -
      + |[-]
        | -
L(5) = {Horizontal(1;1,2), Vertical(2,3;3), Square(1,4;4,5)}

+ - - - + | +
  - - - + | +
    + + - |[-]
      + - | -
        - |[-]
          | +
L(6) = {Horizontal(1;1,2), Square(2,3;3,6), Square(1,4;4,5), Vertical(5,6;6)}

+ - - - + + | +
  - - - + + | +
    + + - - | -
      + - - |[-]
        - - | -
          + | +
            | +
L(7) = {Horizontal(1;1,2), Square(2,3;3,6), Square(1,4;4,5), Vertical(5,6;6), Vertical(4,7;7), Point(1;7)}"""


def _level_lists(steps):
    return {s.level: s.moves for s in steps if s.op == OP_LEVEL}


def _original_column(eps, k):
    col = []
    for i in range(1, k + 1):
        prod = 1
        for l in range(i, k + 1):
            prod *= eps[l - 1]
        col.append(prod)
    return col


def test_worked_certificate_moves():
    assert build_certificate(WORKED).moves == WORKED_MOVES


def test_worked_per_level_lists():
    levels = _level_lists(trace_build(WORKED))
    assert levels == LEVEL_MOVES


def test_all_minus_needs_no_moves():
    for n in (1, 3, 6):
        assert build_certificate((MINUS,) * n).moves == ()


def test_single_plus_is_one_point():
    assert build_certificate((PLUS,)).moves == (Move.point(1, 1),)


def test_trace_single_minus_is_one_level_step():
    steps = trace_build((MINUS,))
    assert len(steps) == 1
    assert steps[0].op == OP_LEVEL
    assert steps[0].moves == ()


def test_render_trace_golden():
    assert render_trace(WORKED) == GOLDEN_TRACE


def test_render_trace_shows_its_own_vectors_construction():
    # the trace is built from the vector rendered, so no other vector's
    # moves (Vertical(1,2;2) is (-1, 1, -1)'s) can appear under its columns
    lines = render_trace((1, 1, 1)).split("\n")
    assert "L(1) = {Point(1;1)}" in lines
    assert "L(3) = {Point(1;1), Point(2;2), Point(1;3), Point(3;3)}" in lines
    assert not any("Vertical" in line for line in lines)


def test_trace_json_structure():
    obj = json.loads(json.dumps(trace_to_obj(WORKED)))
    assert obj["eps"] == list(WORKED)
    assert obj["steps"][-1]["op"] == OP_LEVEL
    assert len(obj["steps"][-1]["moves"]) == len(WORKED_MOVES)
    assert obj["steps"][0]["level"] == 1


def test_trace_lists_moves_only_on_level_steps():
    rng = random.Random(64)
    eps = tuple(rng.choice((PLUS, MINUS)) for _ in range(64))
    steps = trace_build(eps)
    assert all(s.moves == () for s in steps if s.op != OP_LEVEL)
    assert _level_lists(steps)[64] == build_certificate(eps).moves
    # O(n^2) bytes; a move list on every step would make it O(n^3), 4.3 MB
    text = json.dumps(trace_to_obj(eps), separators=(",", ":"))
    assert len(text) < 600_000


def test_checker_accepts_worked():
    report = check_certificate(WORKED, build_certificate(WORKED))
    assert report.accepted
    assert report.failures == ()
    assert report.residual_wrong == ()


def test_checker_rejects_truncated_certificate():
    cert = build_certificate(WORKED)
    mutilated = Certificate(WORKED, cert.moves[:-1])
    report = check_certificate(WORKED, mutilated)
    assert not report.accepted
    assert report.final_is_reference is False
    assert report.residual_wrong == ((1, 7),)


def test_checker_rejects_empty_on_plus():
    report = check_certificate((PLUS,), Certificate((PLUS,), ()))
    assert not report.accepted
    assert report.residual_wrong == ((1, 1),)


def test_checker_flags_source_mismatch():
    cert = build_certificate((PLUS, MINUS))
    report = check_certificate((MINUS, PLUS), cert)
    assert not report.source_matches
    assert not report.accepted


def test_checker_flags_overlap_and_bad_pattern():
    cert = Certificate((PLUS,), (Move.point(1, 1), Move.point(1, 1)))
    report = check_certificate((PLUS,), cert)
    assert not report.disjoint
    assert not report.preconditions_ok
    assert any("already touched" in f for f in report.failures)
    assert any("found '-'" in f for f in report.failures)


def test_checker_flags_out_of_range_move():
    cert = Certificate((PLUS, PLUS), (Move.point(1, 3),))
    report = check_certificate((PLUS, PLUS), cert)
    assert not report.preconditions_ok
    assert any("outside triangle" in f for f in report.failures)


def test_checker_dimension_mismatch_raises():
    cert = build_certificate((PLUS, MINUS))
    with pytest.raises(DimensionError):
        check_certificate((PLUS, MINUS, PLUS), cert)


def test_checker_requires_a_certificate():
    cert = build_certificate(WORKED)
    for bad in ("x", None, cert.moves, certificate_to_obj(cert)):
        with pytest.raises(DomainError, match="must be a Certificate"):
            check_certificate(WORKED, bad)


def test_rebuilt_order_is_stable():
    cert1 = build_certificate(WORKED)
    cert2 = build_certificate(list(WORKED))
    assert cert1 == cert2


def test_builder_reads_the_sign_vector_once_in_order():
    # the builder's state after column k depends only on eps_1..eps_k, so
    # a one-pass iterator of the signs builds the same certificate
    for n in range(1, 9):
        for eps in all_sign_vectors(n):
            assert tuple(_build(iter(eps), None)) == build_certificate(eps).moves


@TEST_SETTINGS
@given(sign_vectors)
def test_certificates_accepted_and_cover_wrong_set(eps):
    cert = build_certificate(eps)
    report = check_certificate(eps, cert)
    assert report.accepted, report.failures
    touched = set()
    for m in cert.moves:
        for pos in m.touched_positions():
            assert pos not in touched
            touched.add(pos)
    assert touched == set(wrong_set(generate_scheme(eps)))
    assert len(cert.moves) <= len(touched)


def _signed_wrong_below(col, k, row):
    # (#wrong '+' strictly below `row`) - (#wrong '-' strictly below `row`)
    total = 0
    for v in range(row + 1, k + 1):
        s = col[v - 1]
        if s != reference_sign(v, k):
            total += 1 if s == PLUS else -1
    return total


def test_trace_bookkeeping_invariants_exhaustive():
    # replay every trace for n <= 8 and re-derive the builder's invariants
    for n in range(1, 9):
        for eps in all_sign_vectors(n):
            steps = trace_build(eps)
            for k in range(1, n + 1):
                level_steps = [s for s in steps if s.level == k]
                assert level_steps[-1].op == OP_LEVEL
                prev = _original_column(eps, k)
                for s in level_steps:
                    if s.op == OP_LEVEL:
                        assert all(
                            s.column[i - 1] == reference_sign(i, k)
                            for i in range(1, k + 1)
                        )
                        continue
                    cur = list(s.column)
                    for i, _ in s.flipped:
                        assert prev[i - 1] != reference_sign(i, k)
                        assert cur[i - 1] == reference_sign(i, k)
                    if s.op in (OP_VERTICAL, OP_SUBSTITUTE):
                        acted = s.flipped[0][0]
                        for row in range(1, acted):
                            assert _signed_wrong_below(
                                cur, k, row
                            ) >= _signed_wrong_below(prev, k, row)
                    if s.op == OP_SUBSTITUTE and len(s.flipped) == 2:
                        top = s.flipped[1][0]
                        assert prev[top - 1] == PLUS
                        assert reference_sign(top, k) == MINUS
                    if s.op == OP_POINT:
                        assert prev[s.flipped[0][0] - 1] == PLUS
                    prev = cur


def test_widened_moves_change_kind_in_place():
    # at level 6 the vertical from level 3 is widened into a square but
    # keeps its slot before moves added later
    levels = _level_lists(trace_build(WORKED))
    assert levels[5].index(Move.square(1, 4, 4, 5)) == levels[4].index(
        Move.vertical(1, 4, 4)
    )
    assert levels[6].index(Move.square(2, 3, 3, 6)) == levels[5].index(
        Move.vertical(2, 3, 3)
    )


CERTIFICATE_READERS = {
    "check_certificate": lambda cert: check_certificate(WORKED, cert),
    "certificate_to_obj": certificate_to_obj,
    "certificate_to_json": certificate_to_json,
}


@pytest.mark.parametrize("call", CERTIFICATE_READERS.values(), ids=CERTIFICATE_READERS)
def test_every_certificate_reader_words_its_refusal_alike(call):
    with pytest.raises(DomainError) as info:
        call("x")
    assert str(info.value) == "certificate must be a Certificate, got str"
