"""Discriminant bound calculator and the Hermite constant table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from signschemes import (
    HERMITE_MAX_RANK,
    HERMITE_POWERS,
    DomainError,
    discriminant_bound,
    hermite_constant,
)


def test_hermite_table_values():
    assert HERMITE_MAX_RANK == 8
    assert HERMITE_POWERS[1] == 1
    assert HERMITE_POWERS[2] == Fraction(4, 3)
    assert HERMITE_POWERS[3] == 2
    assert HERMITE_POWERS[4] == 4
    assert HERMITE_POWERS[5] == 8
    assert HERMITE_POWERS[6] == Fraction(64, 3)
    assert HERMITE_POWERS[7] == 64
    assert HERMITE_POWERS[8] == 256


def test_hermite_constants():
    assert hermite_constant(1) == 1.0
    assert hermite_constant(2) == pytest.approx((4 / 3) ** 0.5, rel=1e-15)
    assert hermite_constant(4) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert hermite_constant(8) == 2.0
    with pytest.raises(DomainError):
        hermite_constant(9)
    with pytest.raises(DomainError):
        hermite_constant(0)
    # a list is unhashable and raised a bare TypeError; True and 2.0 were
    # looked up as 1 and 2
    for d in ([1], True, 2.0, "2"):
        with pytest.raises(DomainError, match="tabulated"):
            hermite_constant(d)


def test_quadratic_worked_value():
    res = discriminant_bound(2, 1.0, 1.0)
    assert res.value == pytest.approx(2 + math.log(4), abs=1e-12)
    assert res.main_term == pytest.approx(2.0, abs=1e-12)
    assert res.additive_term == pytest.approx(math.log(4), abs=1e-12)
    assert not res.gamma_from_table
    assert res.comparison_additive == pytest.approx(2 * math.log(2), abs=1e-12)


def test_table_gamma_used_when_omitted():
    res = discriminant_bound(3, 1.0)
    assert res.gamma_from_table
    assert res.gamma == pytest.approx(hermite_constant(2), rel=1e-15)
    independent = math.sqrt(res.gamma * (27 - 3) / 3) * (math.sqrt(3) * 1.0) ** (
        1 / 2
    ) + 1 * math.log(4)
    assert res.value == pytest.approx(independent, abs=1e-12)


def test_additive_term_survives_tiny_regulator():
    res = discriminant_bound(2, 1e-300, 1.0)
    assert res.value == pytest.approx(math.log(4), abs=1e-9)


def test_input_validation():
    with pytest.raises(DomainError):
        discriminant_bound(1, 1.0, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(True, 1.0, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, -1.0, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, 1.0, 0.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, float("nan"), 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, math.inf, 1.0)
    with pytest.raises(DomainError):
        discriminant_bound(2, 1.0, math.inf)
    with pytest.raises(DomainError):
        discriminant_bound(10, 1.0)
    # non-numbers would make the range comparison raise TypeError
    for bad in ("1", 1j, [1.0]):
        with pytest.raises(DomainError, match="regulator"):
            discriminant_bound(3, bad)
        with pytest.raises(DomainError, match="gamma"):
            discriminant_bound(3, 1.0, bad)
    with pytest.raises(DomainError, match="regulator"):
        discriminant_bound(3, None)
    assert discriminant_bound(10, 1.0, 3.0).degree == 10


def test_numpy_integer_degree_is_a_degree():
    assert discriminant_bound(np.int64(3), 1.0) == discriminant_bound(3, 1.0)
    assert discriminant_bound(np.int64(10), 1.0, 3.0).degree == 10


def test_rank_beyond_table_is_refused_by_hermite_constant():
    with pytest.raises(DomainError, match="tabulated only for ranks 1..8, got 9"):
        discriminant_bound(10, 1.0)


def test_bound_beyond_float_range_is_a_domain_error():
    # the main term overflowed to inf, or n**3 - n to an OverflowError
    for args in ((2, 1e308, 1e308), (10**400, 1.0, 2.0)):
        with pytest.raises(DomainError, match="too large for a float"):
            discriminant_bound(*args)
    assert math.isfinite(discriminant_bound(2, 1e150, 1e150).value)


def test_monotone_in_regulator_and_gamma():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        reg = float(10.0 ** rng.uniform(-2, 2))
        gam = float(10.0 ** rng.uniform(-1, 1))
        base = discriminant_bound(n, reg, gam).value
        assert discriminant_bound(n, reg * 1.5, gam).value > base
        assert discriminant_bound(n, reg, gam * 1.5).value > base
