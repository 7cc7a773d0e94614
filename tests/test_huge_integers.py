"""A refusal names a huge integer by its bit length instead of failing to print it.

str() and repr() refuse an integer over the interpreter's digit limit
(4,300 digits by default), so a refusal that formats one would raise a
bare ValueError from its own message instead of its typed error.
"""

from fractions import Fraction

import pytest

from signschemes import (
    Certificate,
    DimensionError,
    DomainError,
    Move,
    TriangleIndexError,
    all_sign_vectors,
    apply_move,
    candidate_maximizers,
    certificate_from_obj,
    check_certificate,
    discriminant_bound,
    eval_f_batch,
    eval_q,
    eval_q_batch,
    generate_scheme,
    grid_max,
    hermite_constant,
    qmax_bound,
    reference_scheme,
    reference_sign,
    sign_char,
    verify_bound,
)
from signschemes.errors import printable
from signschemes.moves import pattern_mismatch
from signschemes.schemes import Scheme

HUGE = 10**5000  # over the 4,300 digits str() prints by default
SHOWN = r"\[16610-bit integer\]"
S = generate_scheme((1, -1))
FAR = Move("P", 1, HUGE)

REFUSALS = {
    "verify_bound": (lambda: verify_bound(-HUGE), DomainError),
    "grid_max": (lambda: grid_max(-HUGE, 0.5), DomainError),
    "qmax_bound": (lambda: qmax_bound(-HUGE), DomainError),
    "candidate_maximizers": (lambda: candidate_maximizers(-HUGE), DomainError),
    "reference_scheme": (lambda: reference_scheme(-HUGE), DimensionError),
    "all_sign_vectors": (lambda: all_sign_vectors(-HUGE), DimensionError),
    "reference_sign": (lambda: reference_sign(HUGE, 1), TriangleIndexError),
    "Scheme.sign": (lambda: S.sign(1, HUGE), TriangleIndexError),
    "discriminant_bound": (lambda: discriminant_bound(-HUGE, 1.0), DomainError),
    "hermite_constant": (lambda: hermite_constant(HUGE), DomainError),
    "certificate_from_obj": (
        lambda: certificate_from_obj({"n": HUGE, "eps": [1], "moves": []}),
        DimensionError,
    ),
    "Move": (lambda: Move("P", HUGE, 1), TriangleIndexError),
    "apply_move": (lambda: apply_move(S, FAR), TriangleIndexError),
    "pattern_mismatch": (lambda: pattern_mismatch(S, FAR), TriangleIndexError),
    "generate_scheme": (lambda: generate_scheme((HUGE,)), DomainError),
    "sign_char": (lambda: sign_char(HUGE), DomainError),
    "Scheme": (lambda: Scheme(((HUGE,),)), DomainError),
    "eval_q": (lambda: eval_q((HUGE,)), DomainError),
    "eval_q-exact": (lambda: eval_q((HUGE,), exact=True), DomainError),
    "eval_q-exact-fraction": (
        lambda: eval_q((Fraction(HUGE, 3),), exact=True),
        DomainError,
    ),
    "grid_max-fraction-step": (lambda: grid_max(2, -Fraction(HUGE)), DomainError),
}


@pytest.mark.parametrize("call, error", REFUSALS.values(), ids=REFUSALS)
def test_a_huge_integer_is_refused_with_its_typed_error(call, error):
    with pytest.raises(error, match=SHOWN):
        call()


def test_check_certificate_reports_a_huge_column():
    report = check_certificate((1, -1), Certificate((1, -1), [FAR]))
    assert not report.accepted
    assert report.failures == (
        "move 0 Point(1;[16610-bit integer]): "
        "position (1, [16610-bit integer]) outside triangle",
    )


def test_move_repr_shows_a_huge_index():
    assert repr(FAR) == (
        "Move(kind='P', i=1, j=[16610-bit integer], i2=None, j2=None)"
    )
    assert repr(Move.square(1, 2, 3, 4)) == "Move(kind='S', i=1, j=3, i2=2, j2=4)"


def test_batches_refuse_an_integer_past_the_float_range():
    # a cast to float raises OverflowError on an int over about 1024 bits
    with pytest.raises(DomainError, match=r"outside \[-1, 1\] or not finite"):
        eval_q_batch([[10**400]])
    with pytest.raises(DomainError, match=r"outside \[0, 1\] or not finite"):
        eval_f_batch(generate_scheme((1,)), [[10**400]])


def test_printable_leaves_every_other_value_alone():
    small = Fraction(2**2048 - 1, 2**2048 - 3)
    for value in (2**2048 - 1, -(2**2048) + 1, 3, "x", 0.5, None, small):
        assert printable(value) is value
    shown = "[2049-bit integer]"
    assert repr(printable(2**2048)) == str(printable(-(2**2048))) == shown
    assert f"{printable(2**2048)}" == shown
    assert repr(printable(Fraction(-1, 2**2048))) == f"Fraction(-1, {shown})"
