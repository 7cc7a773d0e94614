"""The product kernels against straightforward reference loops.

The reference functions below are the evaluators as first written: one
double loop per product, and for the batch versions a fresh array for
every intermediate. The package evaluates the cube and scheme products
with one scalar and one chunked, in-place batch kernel; both must give
the same numbers to the last bit.

eval_f_batch also takes a sequence of schemes, one per equal group of
consecutive rows. Each row's value depends only on that row and its
scheme, so a grouped call must equal, bit for bit, each scheme applied
to all rows and read at its own group's rows.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from signschemes import (
    DimensionError,
    DomainError,
    eval_f,
    eval_f_batch,
    eval_q,
    eval_q_batch,
    generate_scheme,
    reference_scheme,
)
from signschemes.evaluate import CHUNK


def _reference_q_batch(X):
    X = np.asarray(X, dtype=float)
    m, n = X.shape
    total = np.ones(m)
    for i in range(n):
        prod = np.ones(m)
        for j in range(i, n):
            prod = prod * X[:, j]
            total = total * (1 - prod)
    return total


def _reference_f_batch(scheme, Z):
    Z = np.asarray(Z, dtype=float)
    m, n = Z.shape
    total = np.ones(m)
    for i in range(n):
        row = scheme.rows[i]
        prod = np.ones(m)
        for j in range(i, n):
            prod = prod * Z[:, j]
            total = total * (1 - row[j - i] * prod)
    return total


def _reference_q(x, exact=False):
    coords = tuple(Fraction(c) for c in x) if exact else tuple(x)
    n = len(coords)
    one = Fraction(1) if exact else 1
    total = one
    for i in range(n):
        prod = one
        for j in range(i, n):
            prod *= coords[j]
            total *= 1 - prod
    return total if exact else float(total)


def _reference_f(scheme, z, exact=False):
    coords = tuple(Fraction(c) for c in z) if exact else tuple(z)
    n = scheme.n
    one = Fraction(1) if exact else 1
    total = one
    for i in range(n):
        row = scheme.rows[i]
        prod = one
        for j in range(i, n):
            prod *= coords[j]
            total *= 1 - row[j - i] * prod
    return total if exact else float(total)


def _assert_same_bits(got, ref):
    assert got.dtype == np.float64 and got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _schemes(n):
    rng = random.Random(n)
    eps = tuple(rng.choice((1, -1)) for _ in range(n))
    return generate_scheme(eps), reference_scheme(n)


ROW_COUNTS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)


@pytest.mark.parametrize("m", ROW_COUNTS)
def test_batches_match_reference_at_chunk_edges(m):
    rng = np.random.default_rng(m)
    for n in range(1, 13):
        X = rng.uniform(-1.0, 1.0, size=(m, n))
        _assert_same_bits(eval_q_batch(X), _reference_q_batch(X))
        Z = np.abs(X)
        for scheme in _schemes(n):
            _assert_same_bits(eval_f_batch(scheme, Z), _reference_f_batch(scheme, Z))


def test_batches_match_reference_on_special_values():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        u = rng.uniform(-1.0, 1.0, size=(CHUNK + 5, n))
        specials = np.array([-1.0, -0.0, 0.0, 1.0])
        X = np.where(rng.random(u.shape) < 0.5, rng.choice(specials, size=u.shape), u)
        _assert_same_bits(eval_q_batch(X), _reference_q_batch(X))
        Z = np.where(X < 0, -X, X)  # keeps -0.0, which lies in [0, 1]
        assert np.signbit(Z).any()
        for scheme in _schemes(n):
            _assert_same_bits(eval_f_batch(scheme, Z), _reference_f_batch(scheme, Z))


def _layouts(values, ints, n):
    """List, integer, Fortran-order, strided and reversed forms of a batch."""
    return (
        values[:50, :n].tolist(),
        ints,
        np.asfortranarray(values[:, :n]),
        values[::2, ::2],
        values[::-1, n:],
    )


def test_batches_accept_any_array_layout():
    rng = np.random.default_rng(11)
    n = 9
    shape, int_shape = (2 * CHUNK + 7, 2 * n), (CHUNK + 3, n)
    xs = _layouts(
        rng.uniform(-1.0, 1.0, size=shape), rng.integers(-1, 2, size=int_shape), n
    )
    for X in xs:
        _assert_same_bits(eval_q_batch(X), _reference_q_batch(X))
    zs = _layouts(
        rng.uniform(0.0, 1.0, size=shape), rng.integers(0, 2, size=int_shape), n
    )
    scheme, _ = _schemes(n)
    for Z in zs:
        _assert_same_bits(eval_f_batch(scheme, Z), _reference_f_batch(scheme, Z))


def test_batch_leaves_input_untouched():
    # The kernel overwrites its block copy. The transpose of a one-row
    # block is already contiguous, so a view there would write into X.
    for shape in ((1, 5), (5, 1), (CHUNK + 1, 3)):
        X = np.linspace(-1.0, 1.0, num=shape[0] * shape[1]).reshape(shape)
        before = X.copy()
        eval_q_batch(X)
        eval_f_batch(reference_scheme(shape[1]), np.abs(X))
        assert np.array_equal(X, before)


def test_scalar_kernel_matches_reference():
    rng = random.Random(5)
    for n in range(1, 9):
        generated, target = _schemes(n)
        for _ in range(20):
            x = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            z = tuple(abs(c) for c in x)
            assert eval_q(x) == _reference_q(x)
            for scheme in (generated, target):
                assert eval_f(scheme, z) == _reference_f(scheme, z)
            xq = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(n))
            zq = tuple(abs(c) for c in xq)
            assert eval_q(xq, exact=True) == _reference_q(xq, exact=True)
            for scheme in (generated, target):
                assert eval_f(scheme, zq, exact=True) == _reference_f(
                    scheme, zq, exact=True
                )
            xi = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
            assert eval_q(xi) == _reference_q(xi)
            assert eval_f(generated, tuple(map(abs, xi))) == _reference_f(
                generated, tuple(map(abs, xi))
            )


# (rows per group, groups): with more than CHUNK rows in all, and groups
# that cover row CHUNK or 2 * CHUNK in their middle
GROUPINGS = ((1, CHUNK + 5), (7, CHUNK // 7 + 3), (CHUNK - 1, 3), (CHUNK + 1, 2))


@pytest.mark.parametrize("size,groups", GROUPINGS)
def test_grouped_batch_matches_per_scheme_calls(size, groups):
    rng = np.random.default_rng(size)
    for n in range(1, 10):
        generated, target = _schemes(n)
        distinct = (generated, target, generated.with_flipped([(1, n)]))
        pick = rng.integers(0, len(distinct), size=groups)
        schemes = [distinct[k] for k in pick]
        Z = rng.uniform(0.0, 1.0, size=(size * groups, n))
        got = eval_f_batch(schemes, Z)
        rows = np.repeat(pick, size)
        for k, scheme in enumerate(distinct):
            mine = rows == k
            _assert_same_bits(got[mine], eval_f_batch(scheme, Z)[mine])
            _assert_same_bits(got[mine], _reference_f_batch(scheme, Z)[mine])


def test_grouped_batch_edge_cases():
    rng = np.random.default_rng(3)
    for n in range(1, 10):
        generated, target = _schemes(n)
        empty = eval_f_batch([generated, target, generated], np.empty((0, n)))
        assert empty.dtype == np.float64 and empty.shape == (0,)
        Z = rng.uniform(0.0, 1.0, size=(CHUNK + 2, n))
        _assert_same_bits(eval_f_batch([generated], Z), eval_f_batch(generated, Z))
        _assert_same_bits(eval_f_batch((target,), Z), _reference_f_batch(target, Z))


def test_grouped_batch_rejects_bad_groups():
    Z = np.full((6, 3), 0.5)
    s3, s2 = reference_scheme(3), reference_scheme(2)
    for schemes, z in (
        ([s3] * 4, Z),  # 6 rows do not split into 4 groups
        ([s3, s2], Z),  # mixed sizes
        ([s2, s3], np.full((6, 2), 0.5)),
        ([], Z),
        ((), np.empty((0, 3))),
    ):
        with pytest.raises(DimensionError):
            eval_f_batch(schemes, z)
    for schemes in ([s3, (1, 1, 1)], [None], 5):
        with pytest.raises(DomainError):
            eval_f_batch(schemes, Z)
