"""Discriminant bound from the regulator, for totally real primitive fields.

For a field of degree n with regulator R the bound reads

    log|d| <= sqrt(g * (n^3 - n) / 3) * (sqrt(n) * R)^(1/(n-1)) + floor(n/2) * log 4,

where g is the Hermite constant of rank n - 1. The floor(n/2) * log 4
term is where the 2^floor(n/2) product bound enters; the classical
estimate put n^(n/2) there instead, i.e. an additive n * log n, which is
reported alongside for comparison.

The calculator does plain arithmetic on its inputs. It cannot check that
a field is totally real or primitive; callers must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

from .errors import DomainError, check_count, check_positive, printable

# Exact values of g_d^d for the ranks where the Hermite constant is known
# (standard lattice-theory data, not derived here).
HERMITE_POWERS = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}

HERMITE_MAX_RANK = max(HERMITE_POWERS)


def hermite_constant(d: int) -> float:
    """The Hermite constant g_d, exact-table ranks 1..8 only."""
    if isinstance(d, bool) or not isinstance(d, Integral) or d not in HERMITE_POWERS:
        raise DomainError(
            f"Hermite constant is tabulated only for ranks 1..{HERMITE_MAX_RANK}, "
            f"got {printable(d)}; pass an explicit upper bound instead"
        )
    return float(HERMITE_POWERS[d]) ** (1.0 / d)


@dataclass(frozen=True)
class BoundResult:
    degree: int
    regulator: float
    gamma: float
    gamma_from_table: bool
    main_term: float
    additive_term: float
    value: float
    comparison_additive: float


def discriminant_bound(n: int, regulator: float, gamma: float | None = None) -> BoundResult:
    """Upper bound on log|d| for degree n and regulator R.

    gamma is the Hermite constant of rank n - 1; omitted, it is taken
    from the built-in table, which covers n - 1 <= 8; beyond that an
    explicit value (any valid upper bound) is required. A bound beyond a
    float's range is a DomainError.
    """
    n = check_count("degree", n)
    if n < 2:
        raise DomainError(f"degree must be at least 2, got {n}")
    check_positive("regulator", regulator)
    from_table = gamma is None
    if from_table:
        gamma = hermite_constant(n - 1)
    else:
        check_positive("gamma", gamma)
    try:
        main = math.sqrt(gamma * (n**3 - n) / 3) * (math.sqrt(n) * regulator) ** (
            1.0 / (n - 1)
        )
    except OverflowError:  # n**3 - n is too large for a float
        main = math.inf
    if main == math.inf:
        raise DomainError("the bound is too large for a float")
    additive = (n // 2) * math.log(4)
    return BoundResult(
        degree=n,
        regulator=float(regulator),
        gamma=float(gamma),
        gamma_from_table=from_table,
        main_term=main,
        additive_term=additive,
        value=main + additive,
        comparison_additive=n * math.log(n),
    )
