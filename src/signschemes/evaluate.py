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
taking the signs (None: +1 everywhere) and sharing no code with the
other, so each checks the other. The batch kernel runs on blocks of at
most CHUNK rows, transposed to contiguous columns and updated in place.
eval_f_batch takes one scheme or a sequence of schemes, each applied to
its own equal group of consecutive rows; the kernel keeps one row of
signs per scheme and broadcasts it over that scheme's rows. It is
bit-identical to a row-by-row loop: the same factors in the same order.
A scheme factor is computed as 1 - s*p; s*p is exact for s = +-1, and
IEEE defines x - y as x + (-y), so this is 1 - p or 1 + p to the bit.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import DimensionError, DomainError, printable
from .schemes import MINUS, PLUS, Scheme

# Absolute tolerance for single-factor comparisons; full products of up to
# n(n+1)/2 factors accumulate roundoff and get the looser tolerance.
FACTOR_TOL = 1e-12
PRODUCT_TOL = 1e-9

_EDGE = 1 + 1e-15  # the edges +-1, widened by roundoff slack
CHUNK = 8192  # rows per block of the batch kernel


def _fraction(c) -> Fraction:
    with suppress(TypeError, ValueError, OverflowError):
        if not isinstance(c, str):
            return Fraction(c)
    raise DomainError(f"exact coordinate {c!r} is not a finite number")


def _coords(point, exact: bool) -> tuple:
    try:
        coords = tuple(point)
    except TypeError:
        raise DomainError(f"evaluation point must be a sequence, got {point!r}") from None
    if exact:
        coords = tuple(map(_fraction, coords))
    if not coords:
        raise DimensionError("evaluation point must be non-empty")
    return coords


def _in_cube(coords, lo: int) -> tuple:
    """coords, each checked to be a number in [lo, 1] up to roundoff at +-1."""
    for c in coords:
        inside = False
        with suppress(TypeError, ValueError):
            inside = lo * _EDGE <= c <= _EDGE
        if not inside:
            raise DomainError(f"coordinate {printable(c)!r} outside [{lo}, 1]")
    return coords


def _increasing(coords) -> tuple:
    """coords, checked to be numbers with 0 < |c_1| < ... < |c_n| < inf."""
    prev = 0
    for c in coords:
        ok = False
        with suppress(TypeError, ValueError):
            mag = abs(c)
            ok = prev < mag < np.inf
        if not ok:
            raise DomainError("ratio-product input needs 0 < |y_1| < ... < |y_n| < inf")
        prev = mag
    return coords


def eval_p(y, exact: bool = False):
    """The ratio product prod_{i<j} (1 - y_i/y_j).

    Requires 0 < |y_1| < ... < |y_n|; every factor then lies in (0, 2).
    """
    coords = _increasing(_coords(y, exact))
    n = len(coords)
    total = Fraction(1) if exact else 1.0
    for j in range(1, n):
        for i in range(j):
            total *= 1 - coords[i] / coords[j]
    return total


def change_of_variables(y) -> tuple:
    """Consecutive ratios x_i = y_i / y_{i+1}; each |x_i| < 1."""
    coords = _increasing(_coords(y, exact=False))
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
    if not isinstance(scheme, Scheme):
        raise DomainError("eval_f takes Scheme objects only")
    coords = _in_cube(_coords(z, exact), 0)
    if len(coords) != scheme.n:
        raise DimensionError(
            f"point has dimension {len(coords)}, scheme has {scheme.n}"
        )
    return coords


def eval_q(x, exact: bool = False):
    """The cube product prod_{i<=j} (1 - x_i x_{i+1} ... x_j) on [-1, 1]^n."""
    return _product(_in_cube(_coords(x, exact), -1), None, exact)


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
    coords = _in_cube(_coords(x, exact=False), -1)
    eps = tuple(PLUS if c >= 0 else MINUS for c in coords)
    z = tuple(abs(c) for c in coords)
    return eps, z


def _blocks(groups: int, size: int):
    """(first row, first group, groups, rows per group) of each kernel block.

    A block is whole groups when a group fits in CHUNK rows, otherwise a
    piece of at most CHUNK rows of one group.
    """
    step = max(1, CHUNK // size)
    for g0 in range(0, groups, step):
        for r0 in range(0, size, CHUNK):
            yield g0 * size + r0, g0, min(step, groups - g0), min(CHUNK, size - r0)


def _product_batch(X: np.ndarray, signs=None) -> np.ndarray:
    """_product for every row of the (m, n) float array X.

    signs is None (+1 everywhere) or a (G, n(n+1)/2) float array whose row
    g holds a sign triangle row by row; it applies to the g-th of G equal
    groups of consecutive rows of X.
    """
    m, n = X.shape
    out = np.ones(m)
    groups = 1 if signs is None else len(signs)
    size = m // groups
    if not size:
        return out
    factor = np.empty(min(m, CHUNK))
    for s, g0, g, r in _blocks(groups, size):
        # A private copy: row i becomes the running product x_i ... x_j.
        T = np.array(X[s : s + g * r].T, order="C")
        total = out[s : s + g * r].reshape(g, r)
        f = factor[: g * r].reshape(g, r)
        # column c of the block's signs, shaped (g, 1) to broadcast over rows
        cols = None if signs is None else iter(signs[g0 : g0 + g].T[:, :, None])
        for i, p in enumerate(T):
            prod = p.reshape(g, r)
            for j in range(i, n):
                if j > i:
                    np.multiply(p, T[j], p)
                if cols is None:
                    np.subtract(1.0, prod, f)
                else:
                    np.multiply(next(cols), prod, f)
                    np.subtract(1.0, f, f)
                np.multiply(total, f, total)
    return out


def _batch(X, lo: int, n: int | None = None) -> np.ndarray:
    """X as an (m, n) float array in [lo, 1]^n; n=None takes any n >= 1.

    Entries must be real numbers, as for the scalar evaluators: a cast to
    float would read a numeric string and drop an imaginary part.
    """
    try:
        X = np.asarray(X)
        if X.dtype.kind not in "biuf" and not (
            X.dtype == object and all(isinstance(v, (Real, Decimal)) for v in X.flat)
        ):
            raise TypeError  # refused below, as an entry float() cannot read
        try:
            X = X.astype(float, copy=False)
        except OverflowError:  # an entry past the float range, refused below
            X = np.full(X.shape, np.inf)
    except (TypeError, ValueError):
        raise DomainError("batch contains entries that are not real numbers") from None
    if X.ndim != 2 or X.shape[1] == 0 or n not in (None, X.shape[1]):
        raise DimensionError(f"expected shape (m, {n or 'n'}), got {X.shape}")
    if X.size and not (lo * _EDGE <= X.min() and X.max() <= _EDGE):
        raise DomainError(
            f"batch contains coordinates outside [{lo}, 1] or not finite"
        )
    return X


def eval_q_batch(X) -> np.ndarray:
    """Cube product for every row of an (m, n) float array in [-1, 1]^n."""
    return _product_batch(_batch(X, -1))


def eval_f_batch(schemes, Z) -> np.ndarray:
    """Scheme product for every row of an (m, n) float array in [0,1]^n.

    schemes is one Scheme or a non-empty sequence of G schemes of size n.
    The rows of Z split into G equal groups of consecutive rows, and group
    g is evaluated with schemes[g]; one Scheme is the one-group case. The
    values are bit-identical to one call per group: each factor is
    1 - s*p, which for s = +-1 is exactly the IEEE 1 - p or 1 + p.
    """
    if isinstance(schemes, Scheme):
        schemes = (schemes,)
    try:
        schemes = tuple(schemes)
    except TypeError:
        raise DomainError(f"expected a scheme or schemes, got {schemes!r}") from None
    if not schemes:
        raise DimensionError("eval_f_batch needs at least one scheme")
    if not all(isinstance(s, Scheme) for s in schemes):
        raise DomainError("eval_f_batch takes Scheme objects only")
    n = schemes[0].n
    if any(s.n != n for s in schemes):
        sizes = sorted({s.n for s in schemes})
        raise DimensionError(f"schemes of different sizes {sizes} in one batch")
    X = _batch(Z, 0, n)
    if len(X) % len(schemes):
        raise DimensionError(
            f"{len(X)} rows do not split into {len(schemes)} equal groups"
        )
    signs = np.array([[v for row in s.rows for v in row] for s in schemes], float)
    return _product_batch(X, signs)


# The four core inequalities on [0,1]: the sides (lhs, rhs) of each, in
# plain arithmetic, so numbers, Fractions and numpy arrays all work. Each
# compares products of factors (1 +- t) where t is a product of the
# variables. Ids name the shape: how many factors on the left, and what
# bounds them. pair_one and pair_swap ignore z.
INEQUALITY_SIDES = {
    "pair_one": lambda x, y, z: ((1 - x) * (1 + x * y), 1),
    "pair_swap": lambda x, y, z: ((1 - x) * (1 + x * y), (1 + x) * (1 - x * y)),
    "quad_swap": lambda x, y, z: (
        (1 - y) * (1 + x * y) * (1 + y * z) * (1 - x * y * z),
        (1 + y) * (1 - x * y) * (1 - y * z) * (1 + x * y * z),
    ),
    "quad_one": lambda x, y, z: (
        (1 - y) * (1 + x * y) * (1 + y * z) * (1 - x * y * z),
        1,
    ),
}
FACTOR_INEQUALITIES = tuple(INEQUALITY_SIDES)


def quad_swap_residual(x, y, z):
    """quad_swap's gap rhs - lhs minus its factored form 2y(1-x)(1-z)(1+xy^2z).

    Zero up to roundoff: the gap factors exactly, so it is nonnegative."""
    lhs, rhs = INEQUALITY_SIDES["quad_swap"](x, y, z)
    return (rhs - lhs) - 2 * y * (1 - x) * (1 - z) * (1 + x * y * y * z)


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
    carries quad_swap_residual, which is identically zero up to roundoff.

    Exact inputs (ints, Fractions) are evaluated exactly.
    """
    if which not in FACTOR_INEQUALITIES:  # a tuple: unhashable ids are unknown too
        raise DomainError(f"unknown inequality {which!r}")
    _in_cube((x, y, z), 0)
    lhs, rhs = INEQUALITY_SIDES[which](x, y, z)
    residual = quad_swap_residual(x, y, z) if which == "quad_swap" else None
    return InequalityCheck(which, lhs, rhs, lhs <= rhs + FACTOR_TOL, residual)
