"""Product evaluators, the chamber split, and the factor inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signschemes import (
    FACTOR_INEQUALITIES,
    FACTOR_TOL,
    DimensionError,
    DomainError,
    chamber_of,
    change_of_variables,
    check_factor_inequality,
    eval_f,
    eval_f_batch,
    eval_p,
    eval_q,
    eval_q_batch,
    Move,
    apply_move,
    generate_scheme,
    qmax_bound,
    reference_scheme,
)
from signschemes.moves import pattern_mismatch

TEST_SETTINGS = settings(max_examples=200, deadline=None)

x_points = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8
).map(tuple)


_S = generate_scheme((1, -1, 1))


# Each raised a bare TypeError, AttributeError or ValueError.
WRONG_TYPED_CALLS = {
    "eval_q(None)": lambda: eval_q(None),
    "eval_q(5)": lambda: eval_q(5),
    "eval_q(5, exact=True)": lambda: eval_q(5, exact=True),
    "eval_p(5)": lambda: eval_p(5),
    "chamber_of(None)": lambda: chamber_of(None),
    "change_of_variables(3)": lambda: change_of_variables(3),
    "eval_f(S, 0.5)": lambda: eval_f(_S, 0.5),
    "eval_f('abc', (0.5,))": lambda: eval_f("abc", (0.5,)),
    "apply_move(S, tuple)": lambda: apply_move(_S, ("P", 1, 1, None, None)),
    "apply_move('abc', move)": lambda: apply_move("abc", Move.point(1, 1)),
    "apply_move(S, 'P')": lambda: apply_move(_S, "P"),
    "pattern_mismatch(S, None)": lambda: pattern_mismatch(_S, None),
}


@pytest.mark.parametrize("call", WRONG_TYPED_CALLS.values(), ids=WRONG_TYPED_CALLS)
def test_wrong_typed_arguments_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_eval_p_single_factor():
    assert eval_p((1, 2)) == 0.5


def test_eval_p_mixed_signs():
    # factors: (1 + 1/2), (1 - 1/4), (1 + 1/2)
    assert eval_p((-1, 2, -4)) == 1.6875
    assert eval_p((-1, 2, -4), exact=True) == Fraction(27, 16)


def test_eval_p_matches_q_on_mixed_example():
    x = change_of_variables((-1, 2, -4))
    assert x == (-0.5, -0.5)
    assert eval_q(x) == 1.6875


def test_eval_p_domain_errors():
    for bad in ((0, 1), (1, -1), (2, 1), (1, 1)):
        with pytest.raises(DomainError):
            eval_p(bad)
    # float mode: abs() or the comparison would raise TypeError/ValueError
    for bad in (("a", 1.0), (None, 2.0), ([0.5], 1.0), (0.5, np.array([1.0, 2.0]))):
        with pytest.raises(DomainError):
            eval_p(bad)
        with pytest.raises(DomainError):
            change_of_variables(bad)
    with pytest.raises(DimensionError):
        eval_p(())


def test_change_of_variables():
    assert change_of_variables((1, 2, 4)) == (0.5, 0.5)
    with pytest.raises(DimensionError):
        change_of_variables((1,))


@pytest.mark.parametrize(
    "x,expected",
    [((-1,), 2.0), ((-1, 0), 2.0), ((-1, 0, -1), 4.0), ((0, 0, 0), 1.0)],
)
def test_eval_q_examples(x, expected):
    assert eval_q(x) == expected


def test_eval_q_exact_mode():
    # factors: (1 + 1/2), (1 + 1/4), (1 - 1/2)
    assert eval_q((Fraction(-1, 2), Fraction(1, 2)), exact=True) == Fraction(15, 16)
    # int coordinates evaluate exactly even in default mode
    assert eval_q((-1, 0, -1, 0, -1)) == 8.0


def test_eval_q_domain():
    with pytest.raises(DomainError):
        eval_q((1.5,))
    with pytest.raises(DimensionError):
        eval_q(())


def test_eval_f_examples():
    assert eval_f(reference_scheme(1), (1,)) == 2.0
    assert eval_f(reference_scheme(2), (1, 0)) == 2.0
    assert eval_f(generate_scheme((1, -1, 1)), (0, 0, 0)) == 1.0


def test_eval_f_dimension_mismatch():
    with pytest.raises(DimensionError):
        eval_f(reference_scheme(3), (0.5, 0.5))


def eval_factor(scheme, z, i, j, exact=False):
    """Reference for one factor of eval_f: 1 - C[i,j] * z_i * ... * z_j."""
    s = scheme.sign(i, j)
    prod = Fraction(1) if exact else 1
    for k in range(i - 1, j):
        prod *= Fraction(z[k]) if exact else z[k]
    value = 1 - s * prod
    return value if exact else float(value)


def test_eval_factor():
    scheme = generate_scheme((1, 1, -1, 1, -1))
    z = (0.5, 0.5, 0.5, 0.5, 0.5)
    assert eval_factor(scheme, z, 1, 2) == 0.75
    assert eval_factor(scheme, z, 3, 3) == 1.5
    assert eval_factor(scheme, z, 1, 2, exact=True) == Fraction(3, 4)
    # non-integer indices reach Scheme.sign, which refuses them
    for i, j in ((1.5, 2), (1, 2.0)):
        with pytest.raises(DomainError, match="integers"):
            eval_factor(scheme, z, i, j)


def test_eval_f_is_product_of_factors():
    scheme = generate_scheme((1, -1, 1, -1))
    z = (0.3, 0.7, 0.2, 0.9)
    prod = 1.0
    for i, j in scheme.positions():
        prod *= eval_factor(scheme, z, i, j)
    assert eval_f(scheme, z) == pytest.approx(prod, rel=1e-12)


def test_chamber_of_examples():
    assert chamber_of((-1.0, 0.0)) == ((-1, 1), (1.0, 0.0))
    assert chamber_of((0.5, -0.25)) == ((1, -1), (0.5, 0.25))


@TEST_SETTINGS
@given(x_points)
def test_chamber_identity_is_bit_exact(x):
    eps, z = chamber_of(x)
    assert eval_q(x) == eval_f(generate_scheme(eps), z)


@TEST_SETTINGS
@given(x_points)
def test_q_nonnegative_and_bounded(x):
    val = eval_q(x)
    assert val >= 0.0
    assert val <= qmax_bound(len(x)) + 1e-9


def test_batch_matches_scalar_q():
    rng = np.random.default_rng(42)
    X = rng.uniform(-1.0, 1.0, size=(64, 6))
    vals = eval_q_batch(X)
    for row, val in zip(X, vals):
        assert val == eval_q(tuple(row))


def test_batch_matches_scalar_f():
    rng = np.random.default_rng(43)
    scheme = generate_scheme((1, -1, -1, 1, 1))
    Z = rng.uniform(0.0, 1.0, size=(64, 5))
    vals = eval_f_batch(scheme, Z)
    for row, val in zip(Z, vals):
        assert val == eval_f(scheme, tuple(row))


def test_batch_domain_checks():
    with pytest.raises(DomainError):
        eval_q_batch(np.array([[2.0]]))
    with pytest.raises(DimensionError):
        eval_q_batch(np.empty((0,)))
    with pytest.raises(DomainError):
        eval_f_batch(reference_scheme(2), np.array([[0.5, -0.5]]))
    with pytest.raises(DimensionError):
        eval_f_batch(reference_scheme(2), np.array([[0.5]]))
    # entries numpy cannot convert to float: strings, ragged rows, complex
    for bad in ([["a", 0.5]], [[0.5, 0.5], [0.5]], [[0.5, 1j]]):
        with pytest.raises(DomainError):
            eval_q_batch(bad)
        with pytest.raises(DomainError):
            eval_f_batch(reference_scheme(2), bad)


NON_FINITE = (math.nan, math.inf, -math.inf)


def test_eval_q_batch_rejects_non_finite():
    for bad in NON_FINITE:
        with pytest.raises(DomainError):
            eval_q_batch(np.array([[0.5, bad], [0.0, 0.0]]))


def test_eval_f_batch_rejects_non_finite():
    for bad in NON_FINITE:
        with pytest.raises(DomainError):
            eval_f_batch(reference_scheme(2), np.array([[0.5, 0.5], [bad, 0.5]]))


def test_eval_p_rejects_non_finite():
    for y in ((1.0, math.nan), (math.nan, 1.0), (1.0, math.inf), (-math.inf,)):
        with pytest.raises(DomainError):
            eval_p(y)
        with pytest.raises(DomainError):
            eval_p(y, exact=True)


def test_exact_mode_rejects_non_numbers():
    # Fraction would raise ValueError/OverflowError/TypeError, or parse a string
    for x in ((math.nan,), (0.5, math.inf), ("0.5",), (None,), ([0.5],)):
        with pytest.raises(DomainError):
            eval_q(x, exact=True)
        with pytest.raises(DomainError):
            eval_f(generate_scheme((1,) * len(x)), x, exact=True)
    # Fractions, ints and bools still convert exactly
    assert eval_q((Fraction(1, 2), True), exact=True) == eval_q((0.5, 1), exact=True)
    # float mode: the range comparison would raise TypeError/ValueError
    for x in (("0.5",), (None,), ([0.5],), (0.5, 1j), (np.array([0.1, 0.2]),)):
        with pytest.raises(DomainError):
            eval_q(x)
        with pytest.raises(DomainError):
            eval_f(generate_scheme((1,) * len(x)), x)
        with pytest.raises(DomainError):
            chamber_of(x)


def test_inequality_ids():
    assert FACTOR_INEQUALITIES == ("pair_one", "pair_swap", "quad_swap", "quad_one")


def test_pair_one_boundary():
    res = check_factor_inequality("pair_one", 1, 1)
    assert res.lhs == 0 and res.rhs == 1 and res.holds


def test_pair_swap_interior():
    res = check_factor_inequality("pair_swap", Fraction(1, 2), Fraction(1, 3))
    assert res.lhs == Fraction(7, 12)
    assert res.rhs == Fraction(5, 4)
    assert res.holds


def test_quad_swap_gap_factors_exactly():
    res = check_factor_inequality(
        "quad_swap", Fraction(0), Fraction(1, 2), Fraction(0)
    )
    assert res.rhs - res.lhs == 1  # equals 2y at x = z = 0
    assert res.residual == 0
    assert res.holds


def test_quad_one_corner():
    res = check_factor_inequality("quad_one", 1, 1, 1)
    assert res.lhs == 0 and res.rhs == 1 and res.holds
    assert res.residual is None


def test_inequality_errors():
    with pytest.raises(DomainError):
        check_factor_inequality("nope", 0, 0)
    with pytest.raises(DomainError):
        check_factor_inequality("pair_one", 1.5, 0)
    with pytest.raises(DomainError):
        check_factor_inequality("quad_swap", 0, 0, -0.1)
    for bad in ("0.5", None, 1j):
        with pytest.raises(DomainError):
            check_factor_inequality("pair_one", bad, 0)
    # an unhashable id raised a bare TypeError from the table lookup
    for which in (["x"], {"pair_one": 1}):
        with pytest.raises(DomainError, match="unknown inequality"):
            check_factor_inequality(which, 0.5, 0.5)


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@TEST_SETTINGS
@given(unit, unit, unit)
def test_all_inequalities_hold_on_cube(x, y, z):
    for which in FACTOR_INEQUALITIES:
        res = check_factor_inequality(which, x, y, z)
        assert res.holds
        if res.residual is not None:
            assert abs(res.residual) <= FACTOR_TOL


@TEST_SETTINGS
@given(st.lists(unit, min_size=1, max_size=8).map(tuple))
def test_target_scheme_product_within_bound(z):
    n = len(z)
    assert eval_f(reference_scheme(n), z) <= qmax_bound(n) + 1e-9


def test_p_q_bridge_spot_values():
    y = (0.001, 0.1, 1.0, 10.0, 1000.0)
    p = eval_p(y)
    q = eval_q(change_of_variables(y))
    assert p == pytest.approx(q, rel=1e-9)
    assert p > 0
    assert math.isfinite(p)
