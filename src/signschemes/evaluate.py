"""Evaluation of the three product polynomials and the core factor inequalities.

Three closely related products:

    ratio_product(y)  = prod over i < j of (1 - y_i / y_j)
                        for y with 0 < |y_1| < ... < |y_n|,

    cube_product(x)   = prod over i <= j of (1 - x_i x_{i+1} ... x_j)
                        for x in [-1, 1]^n,

    scheme_product(C, z) = prod over i <= j of (1 - C[i,j] z_i ... z_j)
                        for z in [0, 1]^n.

Substituting x_i = y_i / y_{i+1} turns the first into the second (one
dimension lower); splitting x into signs and magnitudes turns the second
into the third. All evaluators support double-precision floats (default)
and exact rationals (exact=True); integer inputs stay exact in both modes.

The cube and scheme products share one scalar and one batch kernel, each
taking the sign triangle (None: +1 everywhere) and sharing no code with
the other, so each checks the other. The batch kernel runs on blocks of
CHUNK rows, transposed to contiguous columns and updated in place. It is
bit-identical to a row-by-row loop: the same factors in the same order,
with 1 - s*p written as 1 - p or 1 + p, the same IEEE operation.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionError, DomainError
from .schemes import MINUS, PLUS, Scheme

# Absolute tolerance for single-factor comparisons; full products of up to
# n(n+1)/2 factors accumulate roundoff and get the looser tolerance.
FACTOR_TOL = 1e-12
PRODUCT_TOL = 1e-9

_EDGE_SLACK = 1e-15
CHUNK = 8192  # rows per block of the batch kernel


def _fraction(c) -> Fraction:
    with suppress(TypeError, ValueError, OverflowError):
        if not isinstance(c, str):
            return Fraction(c)
    raise DomainError(f"exact coordinate {c!r} is not a finite number")


def _coords(point, exact: bool) -> tuple:
    coords = tuple(map(_fraction, point)) if exact else tuple(point)
    if not coords:
        raise DimensionError("evaluation point must be non-empty")
    return coords


def _check_x(coords) -> None:
    for c in coords:
        if not (-1 - _EDGE_SLACK <= c <= 1 + _EDGE_SLACK):
            raise DomainError(f"coordinate {c!r} outside [-1, 1]")


def _check_z(coords) -> None:
    for c in coords:
        if not (0 <= c <= 1 + _EDGE_SLACK):
            raise DomainError(f"coordinate {c!r} outside [0, 1]")


def _check_y(coords) -> None:
    prev = 0
    for c in coords:
        mag = abs(c)
        if not prev < mag < np.inf:
            raise DomainError("ratio-product input needs 0 < |y_1| < ... < |y_n| < inf")
        prev = mag


def eval_p(y, exact: bool = False):
    """The ratio product prod_{i<j} (1 - y_i/y_j).

    Requires 0 < |y_1| < ... < |y_n|; every factor then lies in (0, 2).
    """
    coords = _coords(y, exact)
    _check_y(coords)
    n = len(coords)
    total = Fraction(1) if exact else 1.0
    for j in range(1, n):
        for i in range(j):
            total *= 1 - coords[i] / coords[j]
    return total


def change_of_variables(y) -> tuple:
    """Consecutive ratios x_i = y_i / y_{i+1}; each |x_i| < 1."""
    coords = _coords(y, exact=False)
    _check_y(coords)
    if len(coords) < 2:
        raise DimensionError("need at least two entries to form ratios")
    return tuple(coords[i] / coords[i + 1] for i in range(len(coords) - 1))


def _product(coords, rows, exact: bool):
    """prod_{i<=j} (1 - C[i,j] c_i ... c_j), C[i,j] = rows[i-1][j-i] or +1."""
    n = len(coords)
    one = Fraction(1) if exact else 1
    total = one
    for i in range(n):
        prod = one
        for j in range(i, n):
            prod *= coords[j]
            total *= 1 - (prod if rows is None else rows[i][j - i] * prod)
    return total if exact else float(total)


def _scheme_coords(scheme: Scheme, z, exact: bool) -> tuple:
    coords = _coords(z, exact)
    _check_z(coords)
    if len(coords) != scheme.n:
        raise DimensionError(
            f"point has dimension {len(coords)}, scheme has {scheme.n}"
        )
    return coords


def eval_q(x, exact: bool = False):
    """The cube product prod_{i<=j} (1 - x_i x_{i+1} ... x_j) on [-1, 1]^n."""
    coords = _coords(x, exact)
    _check_x(coords)
    return _product(coords, None, exact)


def eval_factor(scheme: Scheme, z, i: int, j: int, exact: bool = False):
    """The single factor 1 - C[i,j] * z_i * ... * z_j."""
    coords = _scheme_coords(scheme, z, exact)
    s = scheme.sign(i, j)
    prod = Fraction(1) if exact else 1
    for k in range(i - 1, j):
        prod *= coords[k]
    value = 1 - s * prod
    return value if exact else float(value)


def eval_f(scheme: Scheme, z, exact: bool = False):
    """The scheme product prod_{i<=j} (1 - C[i,j] z_i ... z_j) on [0, 1]^n."""
    return _product(_scheme_coords(scheme, z, exact), scheme.rows, exact)


def chamber_of(x) -> tuple[tuple[int, ...], tuple]:
    """Split x in [-1,1]^n into signs and magnitudes.

    Returns (eps, z) with eps_i = sign(x_i) and z_i = |x_i|. Zero
    coordinates get sign +1; the value of the cube product is unaffected
    because any factor touching a zero coordinate equals 1 either way.
    The identity eval_q(x) == eval_f(generate_scheme(eps), z) holds
    bit-for-bit in floats: both sides multiply the same numbers.
    """
    coords = _coords(x, exact=False)
    _check_x(coords)
    eps = tuple(PLUS if c >= 0 else MINUS for c in coords)
    z = tuple(abs(c) for c in coords)
    return eps, z


def _product_batch(X: np.ndarray, rows) -> np.ndarray:
    """_product for every row of the (m, n) float array X."""
    m, n = X.shape
    out = np.ones(m)
    factor = np.empty(min(m, CHUNK))
    for s in range(0, m, CHUNK):
        # A private copy: row i becomes the running product x_i ... x_j.
        T = np.array(X[s : s + CHUNK].T, order="C")
        total, f = out[s : s + T.shape[1]], factor[: T.shape[1]]
        for i, p in enumerate(T):
            for j in range(i, n):
                if j > i:
                    np.multiply(p, T[j], p)
                if rows is None or rows[i][j - i] == PLUS:
                    np.subtract(1.0, p, f)
                else:
                    np.add(1.0, p, f)
                np.multiply(total, f, total)
    return out


def eval_q_batch(X) -> np.ndarray:
    """Cube product for every row of an (m, n) float array in [-1, 1]^n."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DimensionError(f"expected a 2-d array of points, got shape {X.shape}")
    if X.size and not (-1 - _EDGE_SLACK <= X.min() and X.max() <= 1 + _EDGE_SLACK):
        raise DomainError("batch contains coordinates outside [-1, 1] or not finite")
    return _product_batch(X, None)


def eval_f_batch(scheme: Scheme, Z) -> np.ndarray:
    """Scheme product for every row of an (m, n) float array in [0,1]^n."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != scheme.n:
        raise DimensionError(f"expected shape (m, {scheme.n}), got {Z.shape}")
    if Z.size and not (0 <= Z.min() and Z.max() <= 1 + _EDGE_SLACK):
        raise DomainError("batch contains coordinates outside [0, 1] or not finite")
    return _product_batch(Z, scheme.rows)


# The four core inequalities on [0,1]. Each compares products of factors
# (1 +- t) where t is a product of the variables. Ids name the shape:
# how many factors on the left, and what bounds them.
#
#   pair_one    (1-x)(1+xy) <= 1
#   pair_swap   (1-x)(1+xy) <= (1+x)(1-xy)
#   quad_swap   (1-y)(1+xy)(1+yz)(1-xyz) <= (1+y)(1-xy)(1-yz)(1+xyz)
#   quad_one    (1-y)(1+xy)(1+yz)(1-xyz) <= 1
#
# For quad_swap the gap factors exactly: rhs - lhs = 2y(1-x)(1-z)(1+xy^2z),
# manifestly nonnegative on the cube. pair_one and pair_swap ignore z.
FACTOR_INEQUALITIES = ("pair_one", "pair_swap", "quad_swap", "quad_one")


@dataclass(frozen=True)
class InequalityCheck:
    which: str
    lhs: float
    rhs: float
    holds: bool
    residual: float | None = None


def check_factor_inequality(which: str, x, y, z=0) -> InequalityCheck:
    """Evaluate one of the four core inequalities at a point of [0,1]^3.

    holds is lhs <= rhs + FACTOR_TOL. For quad_swap the result also
    carries the residual (rhs - lhs) - 2y(1-x)(1-z)(1+x y^2 z), which is
    identically zero up to roundoff.

    Exact inputs (ints, Fractions) are evaluated exactly.
    """
    if which not in FACTOR_INEQUALITIES:
        raise DomainError(f"unknown inequality {which!r}")
    for name, v in (("x", x), ("y", y), ("z", z)):
        if not (0 <= v <= 1 + _EDGE_SLACK):
            raise DomainError(f"{name}={v!r} outside [0, 1]")
    pair_lhs = (1 - x) * (1 + x * y)
    residual = None
    if which == "pair_one":
        lhs, rhs = pair_lhs, 1
    elif which == "pair_swap":
        lhs, rhs = pair_lhs, (1 + x) * (1 - x * y)
    else:
        lhs = (1 - y) * (1 + x * y) * (1 + y * z) * (1 - x * y * z)
        if which == "quad_one":
            rhs = 1
        else:
            rhs = (1 + y) * (1 - x * y) * (1 - y * z) * (1 + x * y * z)
            residual = (rhs - lhs) - 2 * y * (1 - x) * (1 - z) * (1 + x * y * y * z)
    return InequalityCheck(which, lhs, rhs, lhs <= rhs + FACTOR_TOL, residual)
