"""Scheme generation, wrongness classification, and counting identities.

The counting identities are checked with the scalar helpers that
tests/test_oracle_reference.py keeps as the identity sweep's reference.
"""

import itertools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signschemes import (
    MINUS,
    PLUS,
    DimensionError,
    DomainError,
    Move,
    Scheme,
    TriangleIndexError,
    all_sign_vectors,
    as_sign_vector,
    candidate_maximizers,
    discriminant_bound,
    format_signs,
    generate_scheme,
    grid_max,
    hermite_constant,
    is_reference,
    parse_signs,
    qmax_bound,
    reference_scheme,
    reference_sign,
    sign_char,
    verify_bound,
    verify_identities,
    verify_inequalities,
    verify_monotonicity,
    wrong_set,
)
from signschemes.cli import run_suites
from test_oracle_reference import (
    WrongCounts,
    horizontal_sum,
    square_sign_product,
    vertical_sum,
    wrong_counts,
)

TEST_SETTINGS = settings(max_examples=200, deadline=None)

# five-entry worked vector and its generated rows, frozen by hand
FIVE = (1, 1, -1, 1, -1)
FIVE_ROWS = (
    (1, 1, -1, -1, 1),
    (1, -1, -1, 1),
    (-1, -1, 1),
    (1, -1),
    (-1,),
)
FIVE_WRONG = frozenset(
    {(1, 1), (1, 4), (1, 5), (2, 2), (2, 3), (3, 4), (3, 5), (4, 4), (4, 5)}
)

sign_vectors = st.lists(st.sampled_from((PLUS, MINUS)), min_size=1, max_size=12).map(
    tuple
)


def test_generate_five_matches_hand_expansion():
    assert generate_scheme(FIVE).rows == FIVE_ROWS


def test_generate_single_minus():
    assert generate_scheme((-1,)).rows == ((-1,),)


def test_generate_all_minus_alternates():
    scheme = generate_scheme((-1, -1, -1, -1))
    assert scheme.rows == ((-1, 1, -1, 1), (-1, 1, -1), (-1, 1), (-1,))
    assert is_reference(scheme)


def test_generate_rejects_empty():
    with pytest.raises(DimensionError):
        generate_scheme(())


def test_generate_rejects_non_sign_entries():
    # True == 1 and 1.0 == 1, but neither is a sign
    for eps in ((1, 2), (True, -1), (1, False), (1.0, -1), (1, -1.0), (1, "1")):
        with pytest.raises(DomainError):
            generate_scheme(eps)
        with pytest.raises(DomainError):
            as_sign_vector(list(eps))
    for values in (None, 5, 1.0):
        with pytest.raises(DomainError):
            as_sign_vector(values)
    # the same rule holds for entries given to Scheme directly
    for rows in (((True, 1.0), (-1,)), ((1, 1), (True,)), ((1, -1.0), (1,)), ((1, [1]), (1,))):
        with pytest.raises(DomainError):
            Scheme(rows)


def test_as_sign_vector_freezes():
    assert as_sign_vector([1, -1]) == (1, -1)
    # integral entries of other types are stored as plain ints
    frozen = as_sign_vector(np.array([1, -1, -1]))
    assert frozen == (1, -1, -1)
    assert all(type(v) is int for v in frozen)


@pytest.mark.parametrize(
    "values, message",
    [
        ([True, -1], "got True"),
        ([1.0, -1], "got 1.0"),
        ([[1]], "got [1]"),
        ([0], "got 0"),
        ([2], "got 2"),
        ([1, -1, np.int64(2)], "got np.int64(2)"),
    ],
)
def test_as_sign_vector_rejects_entries(values, message):
    # a list entry must fail the type test before a set test hashes it
    with pytest.raises(DomainError) as exc:
        as_sign_vector(values)
    assert str(exc.value) == f"sign vector entries must be +1 or -1, {message}"


@pytest.mark.parametrize(
    "values, expected",
    [
        ([np.int64(1), -1], (1, -1)),
        (np.array([1, -1]), (1, -1)),
        ([-1, 1], (-1, 1)),
        (iter([1, -1, -1]), (1, -1, -1)),
    ],
)
def test_as_sign_vector_returns_plain_ints(values, expected):
    frozen = as_sign_vector(values)
    assert frozen == expected
    assert type(frozen) is tuple and all(type(v) is int for v in frozen)


def test_scheme_shape_validation():
    with pytest.raises(DimensionError):
        Scheme(((1,), (1,)))
    with pytest.raises(DimensionError):
        Scheme(())
    with pytest.raises(DomainError):
        Scheme(((0,),))


def test_sign_lookup_and_bounds():
    scheme = generate_scheme(FIVE)
    assert scheme.sign(1, 5) == PLUS
    assert scheme.sign(3, 4) == MINUS
    for i, j in ((0, 1), (2, 1), (1, 6), (6, 6)):
        with pytest.raises(TriangleIndexError):
            scheme.sign(i, j)


def test_positions_enumerates_triangle():
    scheme = generate_scheme(FIVE)
    pos = list(scheme.positions())
    assert len(pos) == 15
    assert pos[0] == (1, 1) and pos[-1] == (5, 5)


def test_with_flipped_returns_new_scheme():
    scheme = generate_scheme(FIVE)
    flipped = scheme.with_flipped(((1, 1), (2, 3)))
    assert flipped.sign(1, 1) == -scheme.sign(1, 1)
    assert flipped.sign(2, 3) == -scheme.sign(2, 3)
    assert scheme.rows == FIVE_ROWS


def test_with_flipped_equals_a_validated_scheme():
    scheme = generate_scheme(FIVE)
    moves = (((1, 1),), ((2, 3), (2, 5), (5, 5)), ((1, 1), (1, 1)), ())
    for positions in moves:
        flipped = scheme.with_flipped(positions)
        assert flipped == Scheme(flipped.rows)
        rows = [list(row) for row in FIVE_ROWS]
        for i, j in positions:
            rows[i - 1][j - i] *= -1
        assert flipped == Scheme(tuple(map(tuple, rows)))
        assert all(type(row) is tuple for row in flipped.rows)
        assert all(type(v) is int for row in flipped.rows for v in row)
    # numpy indices are positions; the entries stay plain ints
    flipped = scheme.with_flipped(((np.int64(2), np.int64(4)),))
    assert flipped == Scheme(flipped.rows) and flipped.sign(2, 4) == PLUS
    assert all(type(v) is int for row in flipped.rows for v in row)


def test_generate_scheme_equals_a_validated_scheme():
    for eps in (FIVE, np.array(FIVE), [np.int64(v) for v in FIVE], (MINUS,)):
        scheme = generate_scheme(eps)
        assert scheme == Scheme(scheme.rows)
        assert all(type(v) is int for row in scheme.rows for v in row)
    assert generate_scheme(FIVE).rows == FIVE_ROWS


@pytest.mark.parametrize(
    "positions, error, message",
    [
        (((0, 1),), TriangleIndexError, "position (0, 1) outside triangle of size 5"),
        (
            ((1, 1), (3, 2)),
            TriangleIndexError,
            "position (3, 2) outside triangle of size 5",
        ),
        (((1, 6),), TriangleIndexError, "position (1, 6) outside triangle of size 5"),
        (((1.5, 2),), DomainError, "position indices must be integers: (1.5, 2)"),
        (((1, "2"),), DomainError, "position indices must be integers: (1, '2')"),
        (5, DomainError, "positions must be (i, j) pairs, got 5"),
        ([(1,)], DomainError, "positions must be (i, j) pairs, got [(1,)]"),
        ([(1, 2, 3)], DomainError, "positions must be (i, j) pairs, got [(1, 2, 3)]"),
    ],
)
def test_with_flipped_checks_every_position(positions, error, message):
    with pytest.raises(error) as exc:
        generate_scheme(FIVE).with_flipped(positions)
    assert type(exc.value) is error and str(exc.value) == message


def test_render_golden():
    expected = "+ + - - +\n  + - - +\n    - - +\n      + -\n        -"
    assert generate_scheme(FIVE).render() == expected
    assert str(generate_scheme(FIVE)) == expected


def test_sign_char():
    assert sign_char(PLUS) == "+" and sign_char(MINUS) == "-"
    with pytest.raises(DomainError):
        sign_char(0)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("+,-,+", (1, -1, 1)),
        ("+ - +", (1, -1, 1)),
        ("+-+", (1, -1, 1)),
        ("1,-1,1", (1, -1, 1)),
        ("+1,-1", (1, -1)),
        ("-", (-1,)),
    ],
)
def test_parse_signs(text, expected):
    assert parse_signs(text) == expected


def test_parse_signs_errors():
    with pytest.raises(DimensionError):
        parse_signs("")
    with pytest.raises(DomainError):
        parse_signs("+,x")


@pytest.mark.parametrize(
    "text, type_name", [(None, "NoneType"), (5, "int"), (b"+-", "bytes")]
)
def test_parse_signs_refuses_non_text(text, type_name):
    with pytest.raises(DomainError) as exc:
        parse_signs(text)
    assert type(exc.value) is DomainError
    assert str(exc.value) == f"sign vector text must be a str, got {type_name}"


def test_format_signs_roundtrip():
    assert format_signs(FIVE) == "+ + - + -"
    assert parse_signs(format_signs(FIVE)) == FIVE


# True and 1.0 compare equal to 1, so the sign lookups took them, and
# reference_sign checked nothing: it raised a bare TypeError or gave a sign.
SIGN_HELPER_REFUSALS = {
    "sign_char(True)": (lambda: sign_char(True), DomainError),
    "sign_char(1.0)": (lambda: sign_char(1.0), DomainError),
    "sign_char(np.int64(1))": (lambda: sign_char(np.int64(1)), DomainError),
    "sign_char([1])": (lambda: sign_char([1]), DomainError),
    "format_signs((True, 1.0))": (lambda: format_signs((True, 1.0)), DomainError),
    "format_signs(3)": (lambda: format_signs(3), DomainError),
    "reference_sign('a', 1)": (lambda: reference_sign("a", 1), DomainError),
    "reference_sign(1, 2.0)": (lambda: reference_sign(1, 2.0), DomainError),
    "reference_sign(0, -5)": (lambda: reference_sign(0, -5), TriangleIndexError),
    "reference_sign(3, 2)": (lambda: reference_sign(3, 2), TriangleIndexError),
}


@pytest.mark.parametrize(
    "call, error", SIGN_HELPER_REFUSALS.values(), ids=SIGN_HELPER_REFUSALS
)
def test_sign_helpers_refuse_what_a_scheme_refuses(call, error):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error


def test_reference_sign_parity():
    assert reference_sign(1, 1) == MINUS
    assert reference_sign(1, 2) == PLUS
    assert reference_sign(3, 7) == MINUS
    # written as a parity of j - i; the equivalent i - j parity must agree
    for i in range(1, 8):
        for j in range(i, 8):
            assert reference_sign(i, j) == (-1) ** (j - i + 1)
            assert reference_sign(i, j) == (-1) ** (i - j + 1)


def test_reference_scheme_has_empty_wrong_set():
    scheme = reference_scheme(6)
    assert is_reference(scheme)
    assert wrong_set(scheme) == frozenset()


def test_wrong_set_five():
    assert wrong_set(generate_scheme(FIVE)) == FIVE_WRONG


def test_row_and_column_sums_five():
    scheme = generate_scheme(FIVE)
    assert horizontal_sum(scheme, 1, 3) == 2
    assert vertical_sum(scheme, 1, 3) == -2
    assert vertical_sum(scheme, 2, 3) == -1
    assert horizontal_sum(scheme, 1, 1) == 0
    assert vertical_sum(scheme, 5, 5) == 0
    assert horizontal_sum(reference_scheme(4), 1, 4) == -1


def test_wrong_counts_five():
    scheme = generate_scheme(FIVE)
    assert wrong_counts(scheme, 2, 3) == WrongCounts(1, 0, 0, 0, 1, 0)
    w = wrong_counts(scheme, 1, 5)
    assert (w.h_plus, w.h_minus) == (1, 1)
    assert (w.v_plus, w.v_minus) == (1, 1)
    assert w.h == 0 and w.v == 0


def test_square_sign_product_requires_strict_corners():
    scheme = generate_scheme(FIVE)
    assert square_sign_product(scheme, 1, 2, 3, 4) == PLUS
    with pytest.raises(TriangleIndexError):
        square_sign_product(scheme, 1, 2, 2, 3)
    with pytest.raises(TriangleIndexError):
        square_sign_product(scheme, 2, 1, 3, 4)


def test_square_sign_product_distinguishes_non_generated():
    # not generated by any sign vector; one corner product is -1
    scheme = Scheme(((1, 1, -1, -1), (1, -1, 1), (1, 1), (1,)))
    assert square_sign_product(scheme, 1, 2, 3, 4) == MINUS


def test_all_sign_vectors_small():
    assert list(all_sign_vectors(2)) == [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert sum(1 for _ in all_sign_vectors(8)) == 256
    with pytest.raises(DimensionError):
        all_sign_vectors(0)


def test_false_size_is_a_domain_error_like_true():
    # False was read as the integer 0 and raised DimensionError
    for size_fn in (all_sign_vectors, reference_scheme):
        with pytest.raises(DomainError, match="positive integer, got False"):
            size_fn(False)
        with pytest.raises(DimensionError, match="must be positive, got -1"):
            size_fn(-1)


def test_sizes_and_positions_must_be_integers():
    # each of these raised a bare TypeError, or was accepted (True as 1)
    for n in (2.5, "3", True, None):
        with pytest.raises(DomainError):
            reference_scheme(n)
        with pytest.raises(DomainError):
            all_sign_vectors(n)
    for rows in (5, None, (5,)):
        with pytest.raises(DomainError, match="sequences"):
            Scheme(rows)
    scheme = generate_scheme(FIVE)
    for i, j in ((1.5, 2), (1, 2.0), ("1", 2)):
        with pytest.raises(DomainError, match="integers"):
            scheme.sign(i, j)
    assert reference_scheme(np.int64(2)).rows == ((-1, 1), (-1,))
    assert scheme.sign(np.int64(1), np.int64(5)) == PLUS


_SCHEME = generate_scheme((1, -1, 1))

# Each public count, index, position and positive-real parameter, given True.
TRUE_ARGUMENTS = {
    "reference_scheme n": lambda: reference_scheme(True),
    "all_sign_vectors n": lambda: all_sign_vectors(True),
    "qmax_bound n": lambda: qmax_bound(True),
    "candidate_maximizers n": lambda: candidate_maximizers(True),
    "verify_bound n": lambda: verify_bound(True, 10),
    "verify_bound budget": lambda: verify_bound(2, True),
    "verify_bound seed": lambda: verify_bound(2, 10, seed=True),
    "grid_max n": lambda: grid_max(True, 0.5),
    "grid_max step": lambda: grid_max(2, True),
    "verify_identities n_max": lambda: verify_identities(True),
    "verify_identities seed": lambda: verify_identities(2, seed=True),
    "verify_inequalities samples": lambda: verify_inequalities(True),
    "verify_inequalities seed": lambda: verify_inequalities(10, seed=True),
    "verify_monotonicity n_max": lambda: verify_monotonicity(True, 10),
    "verify_monotonicity samples_per_move": lambda: verify_monotonicity(2, True),
    "verify_monotonicity seed": lambda: verify_monotonicity(2, 10, seed=True),
    "run_suites n_max": lambda: list(run_suites("bound", True, 10, 0)),
    "run_suites samples": lambda: list(run_suites("bound", 2, True, 0)),
    "run_suites seed": lambda: list(run_suites("bound", 2, 10, True)),
    "hermite_constant d": lambda: hermite_constant(True),
    "discriminant_bound n": lambda: discriminant_bound(True, 1.0),
    "discriminant_bound regulator": lambda: discriminant_bound(3, True),
    "discriminant_bound gamma": lambda: discriminant_bound(3, 1.0, True),
    "Move i": lambda: Move("P", True, 1),
    "Move j": lambda: Move("P", 1, True),
    "Move i2": lambda: Move("V", 1, 2, True),
    "Move j2": lambda: Move("H", 1, 1, None, True),
    "Scheme.sign i": lambda: _SCHEME.sign(True, 2),
    "Scheme.sign j": lambda: _SCHEME.sign(1, True),
    "Scheme.check_position i": lambda: _SCHEME.check_position(True, 2),
    "Scheme.with_flipped i": lambda: _SCHEME.with_flipped([(True, 2)]),
    "Scheme.with_flipped j": lambda: _SCHEME.with_flipped([(1, True)]),
    "reference_sign i": lambda: reference_sign(True, 1),
    "reference_sign j": lambda: reference_sign(1, True),
}


@pytest.mark.parametrize("call", TRUE_ARGUMENTS.values(), ids=TRUE_ARGUMENTS)
def test_true_is_not_a_count_index_position_or_real(call):
    # True equals 1, but no integer or real rule takes a bool
    with pytest.raises(DomainError):
        call()


@TEST_SETTINGS
@given(sign_vectors)
def test_diagonal_equals_generator(eps):
    scheme = generate_scheme(eps)
    for i, e in enumerate(eps, start=1):
        assert scheme.sign(i, i) == e


@TEST_SETTINGS
@given(sign_vectors)
def test_entries_are_consecutive_products(eps):
    scheme = generate_scheme(eps)
    for i, j in scheme.positions():
        prod = 1
        for k in range(i, j + 1):
            prod *= eps[k - 1]
        assert scheme.sign(i, j) == prod


def _consecutive_products(eps):
    """Rows of the generated scheme by definition: eps[i] * ... * eps[j], j >= i."""
    return tuple(
        tuple(itertools.accumulate(eps[i:], operator.mul)) for i in range(len(eps))
    )


def test_generate_scheme_rows_are_consecutive_products():
    rng = random.Random(20)
    vectors = [eps for n in range(1, 13) for eps in all_sign_vectors(n)]
    vectors += [
        tuple(rng.choice((PLUS, MINUS)) for _ in range(rng.randint(1, 128)))
        for _ in range(200)
    ]
    for eps in vectors:
        assert generate_scheme(eps).rows == _consecutive_products(eps)


def test_wrong_set_and_is_reference_match_the_definition():
    def wrong_by_definition(scheme):
        return frozenset(
            (i, j) for i, j in scheme.positions() if scheme.sign(i, j) != (-1) ** (j - i + 1)
        )

    rng = random.Random(8)
    schemes = [generate_scheme(eps) for n in range(1, 9) for eps in all_sign_vectors(n)]
    schemes += [  # flipped entries make schemes that no sign vector generates
        s.with_flipped(rng.sample(list(s.positions()), rng.randint(1, s.n)))
        for s in list(schemes)
    ]
    target = reference_scheme(8)
    schemes += [target.with_flipped([pos]) for pos in target.positions()]
    for scheme in schemes:
        wrong = wrong_by_definition(scheme)
        assert wrong_set(scheme) == wrong
        assert is_reference(scheme) == (not wrong)


@TEST_SETTINGS
@given(sign_vectors)
def test_square_products_always_plus(eps):
    scheme = generate_scheme(eps)
    n = len(eps)
    for i, i2, j, j2 in itertools.combinations(range(1, n + 1), 4):
        assert square_sign_product(scheme, i, i2, j, j2) == PLUS


@TEST_SETTINGS
@given(sign_vectors)
def test_row_sum_opposes_column_sum_at_minus(eps):
    scheme = generate_scheme(eps)
    for i, j in scheme.positions():
        if scheme.sign(i, j) == MINUS:
            assert horizontal_sum(scheme, i, j) == -vertical_sum(scheme, i, j)


@TEST_SETTINGS
@given(sign_vectors)
def test_parity_identities_at_odd_minus(eps):
    scheme = generate_scheme(eps)
    for i, j in scheme.positions():
        if scheme.sign(i, j) == MINUS and (i + j) % 2 == 1:
            w = wrong_counts(scheme, i, j)
            hw = w.h_plus - w.h_minus
            vw = w.v_plus - w.v_minus
            assert vertical_sum(scheme, i, j) == 2 * vw - 1
            assert horizontal_sum(scheme, i, j) == 2 * hw - 1
            assert hw + vw == 1


@TEST_SETTINGS
@given(sign_vectors)
def test_only_all_minus_generates_the_target(eps):
    assert is_reference(generate_scheme(eps)) == all(e == MINUS for e in eps)
