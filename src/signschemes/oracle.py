"""Brute-force and sampling corroboration of the package's quantitative claims.

Everything here re-derives facts the library's algebra already implies:
the cube-product maximum and its attaining points, the algebraic
identities of generated schemes, the four factor inequalities, and the
monotonicity of rewrite moves along built certificates. The point is
independence: these routines only use the evaluators, or running
products of their own (the identity and grid sweeps and verify_bound's
ascent), and enumerate or sample, so they would catch a bug in the
clever parts.

The identity sweep works on blocks of sign vectors at once: it builds
their schemes as one float tensor by running products of its own and
checks every square, sum and parity cell with array operations. Every
entry is +1, -1 or 0 and every sum a small integer, all exact in
floats, and the float operations are the ones the batch evaluator
already runs. Per dimension, the schemes of the first and last vector
are compared with generate_scheme.

The monotonicity sweep replays each certificate, then checks whole
certificates together in runs of at most _RUN_ROWS z-sample rows: one
draw and two grouped eval_f_batch calls per run, not per certificate.
The draws are the same numbers as one draw per move, so the reports do
not depend on how the moves are grouped.

The other sweeps hold one block at a time, of at most CHUNK rows, the
batch kernel's own block. verify_inequalities and verify_bound's random
phase both draw through _uniform_blocks, CHUNK rows per block into one
reused buffer: numpy fills rows in order, so these are the same numbers
as one draw of every row. verify_bound's ascent draws its starts the
same way, in blocks of at most 2 CHUNK / n rows. grid_max writes its
blocks, in lexicographic order, into one reused buffer too.

grid_max's blocks share their last t coordinates, so it holds one block
plus the t(t + 1)/2 <= 36 factor rows, of <= CHUNK floats, of the
current piece of that shared tail, written once per piece. It evaluates
each block from those rows and its first coordinates' floats,
bit-identical to eval_q_batch.

verify_bound's ascent keeps, per block of starts, the n x n square of
their factors, at most 2 CHUNK n floats: the random phase's block plus
the batch kernel's copy of it. A step moves one coordinate, so it
recomputes only the factors that hold it and multiplies the square out,
bit-identical to eval_q_batch on the step's points.

Every suite refuses, before it starts, a run whose estimated work is
over its cap (_check_cap, ResourceLimitError): identity squares, grid
points, the monotonicity dimension, the floats a sampled suite draws,
or the steps of verify_bound's ascent. For the suites that draw in
blocks, the float rule limits work, not the size of any one array.
Each verify_* function's rule is its own *_cap function, on its validated
size arguments, so cli.run_suites can check every run before the first.

All randomness comes from numpy's seeded generator; every report records
the seed it was produced with.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundViolationError,
    DomainError,
    InvalidMoveError,
    ResourceLimitError,
    TriangleIndexError,
    check_count,
    check_positive,
)
from .evaluate import (
    CHUNK,
    FACTOR_INEQUALITIES,
    FACTOR_TOL,
    INEQUALITY_SIDES,
    PRODUCT_TOL,
    check_factor_inequality,
    eval_f_batch,
    eval_q,
    eval_q_batch,
    quad_swap_residual,
)
from .moves import apply_move
from .normalize import build_certificate, report_to_json  # noqa: F401 (re-exported)
from .schemes import (
    MINUS,
    PLUS,
    all_sign_vectors,
    generate_scheme,
    is_reference,
)

# The random-phase term of bound_cap's rule (verify_bound itself draws
# CHUNK rows per block).
_BATCH = 250_000
_GRID_POINT_CAP = 40_000_000
# Floats a sampled suite may draw, by its *_cap rule: all the points of
# verify_inequalities, one draw of z-samples, and the largest of _BATCH
# random points, the ascent starts and one block's factor square for
# verify_bound. A z-sample draw and the square are each one array; the
# inequalities, the random phase and the starts are drawn in blocks, so
# for them this limits work, not memory.
_FLOAT_CAP = 10_000_000
# verify_monotonicity sweeps every sign vector, so it stops at this n,
# and checks whole certificates in runs of at most _RUN_ROWS z-samples.
MONOTONICITY_N_MAX = 8
_RUN_ROWS = 2_048
_ASCENT_ROUNDS = 20  # verify_bound halves its ascent step this many times
# Each block of ascent starts takes 2 * _ASCENT_ROUNDS * n steps, each a
# running product over up to n columns of factors, one numpy call per
# column whatever the block's size: at most this many (n <= 50).
_ASCENT_CAP = 100_000

# verify_identities: every sign vector up to _EXHAUSTIVE_N, _POOL random
# vectors per larger dimension, in blocks of _BLOCK vectors (the reports do
# not depend on it); at most _SQUARE_CAP squares per call.
_EXHAUSTIVE_N = 16
_BLOCK = 256
_POOL = 512
_SQUARE_CAP = 200_000_000


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(check_count("seed", seed))


def _check_cap(work: int, cap: int, what: str, *sizes: int) -> None:
    """Refuse a run, before it starts, whose estimated work exceeds cap.

    The message is what, formatted with sizes. A size over 2048 bits is
    shown by its bit length: str() refuses an integer over the
    interpreter's digit limit (4,300 digits by default, 640 at the least).
    """
    if work > cap:
        shown = (
            str(k) if k.bit_length() <= 2048 else f"[{k.bit_length()}-bit integer]"
            for k in sizes
        )
        raise ResourceLimitError(f"{what.format(*shown)}, cap is {cap}")


def identities_cap(n_max: int) -> None:
    """Refuse verify_identities(n_max) over _SQUARE_CAP squares.

    The terms are positive, so the count stops at the first dimension
    that takes it over the cap: a huge n_max is refused at once.
    """
    work = 0
    for n in range(1, n_max + 1):
        work += (2**n if n <= _EXHAUSTIVE_N else _POOL) * math.comb(n, 4)
        if work > _SQUARE_CAP:
            break
    what = "verify_identities({}) would check at least {} squares"
    _check_cap(work, _SQUARE_CAP, what, n_max, work)


def inequalities_cap(samples: int) -> None:
    floats = 3 * samples
    _check_cap(floats, _FLOAT_CAP, "verify_inequalities would draw {} floats", floats)


def monotonicity_cap(n_max: int, samples_per_move: int) -> None:
    _check_cap(n_max, MONOTONICITY_N_MAX, "exhaustive sweep to n_max={}", n_max)
    floats = n_max * samples_per_move
    _check_cap(floats, _FLOAT_CAP, "verify_monotonicity would draw {} floats", floats)


def bound_cap(n: int, budget: int) -> tuple[int, int]:
    """verify_bound(n, budget)'s ascent starts and rows per block of them.

    Refuses the run over either of two caps. The float rule counts the
    largest of n * min(budget, _BATCH) random floats, n floats per start
    and one block's n x n factor square, so the square is the only one
    of them held whole; the random phase and the starts are drawn in
    blocks, and for them the rule limits work. The ascent rule counts
    2 * _ASCENT_ROUNDS * n steps of up to n column products per block,
    work that does not shrink with the block.
    """
    starts = max(1, budget // (2 * _ASCENT_ROUNDS * n))
    rows = min(starts, max(1, 2 * CHUNK // n))
    floats = max(n * min(budget, _BATCH), n * starts, n * n * rows)
    _check_cap(floats, _FLOAT_CAP, "verify_bound would draw {} floats", floats)
    steps = 2 * _ASCENT_ROUNDS * n
    what = "verify_bound's ascent would take {} steps of {} column products"
    _check_cap(steps * n, _ASCENT_CAP, what, steps, n)
    return starts, rows


def _top(vals, X, bound, where: str) -> tuple[int, float]:
    """Index and value of the largest cube-product value in a batch.

    A value over bound + PRODUCT_TOL, or NaN (which np.argmax picks
    first), is a violation: a broken evaluator cannot pass with NaN.
    """
    idx = int(np.argmax(vals))
    top = float(vals[idx])
    if not top <= bound + PRODUCT_TOL:
        raise BoundViolationError(
            f"{where} point {tuple(X[idx].tolist())} gives {top} > bound {bound}"
        )
    return idx, top


def _sweep(blocks, bound: int, where: str):
    """Best value and point over the (X, vals) blocks, and the points within
    1e-12 of bound.

    Holds one block at a time: each block and its values are released
    before the next is made, and X and vals may be buffers that the next
    block overwrites, since points are copied out as tuples. (The grid's
    blocks also hold their current tail piece's factor rows; see
    _grid_blocks.) The best point is the first one to reach the best
    value, as in one sweep of all the blocks' rows.
    """
    best_value, best_point, near = -math.inf, (), []
    for X, vals in blocks:
        idx, top = _top(vals, X, bound, where)
        if top > best_value:
            best_value, best_point = top, tuple(X[idx].tolist())
        near += map(tuple, X[vals >= bound - 1e-12].tolist())
        del X, vals  # before the next block is made
    return best_value, best_point, near


def qmax_bound(n: int) -> int:
    """The proven maximum of the n-variable cube product: 2^floor((n+1)/2)."""
    n = check_count("dimension", n, 1)
    return 2 ** ((n + 1) // 2)


def candidate_maximizers(n: int) -> tuple[tuple[int, ...], ...]:
    """The known maximizing points, with coordinates in {-1, 0}.

    Odd n has the single alternating point (-1, 0, -1, 0, ...); even n
    has the n/2 + 1 block patterns [-1,0]*k + [0,-1]*(n/2 - k).
    """
    n = check_count("dimension", n, 1)
    if n % 2 == 1:
        return (tuple(-1 if i % 2 == 0 else 0 for i in range(n)),)
    half = n // 2
    return tuple(
        tuple([-1, 0] * k + [0, -1] * (half - k)) for k in range(half + 1)
    )


@dataclass(frozen=True)
class MaxReport:
    """Best cube-product value found by one search method."""

    n: int
    best_value: float
    best_point: tuple[float, ...]
    method: str
    bound: int
    within_bound: bool
    attained: bool
    evaluations: int
    seed: int | None = None
    budget: int | None = None
    step: float | None = None
    findings: tuple[tuple[float, ...], ...] = ()

    def summary(self) -> str:
        return (
            f"best={self.best_value:.12g} bound={self.bound} method={self.method} "
            f"attained={'yes' if self.attained else 'no'} "
            f"evaluations={self.evaluations} seed={self.seed}"
        )


def _uniform_blocks(
    rng: np.random.Generator, rows: int, n: int, lo: float, block: int | None = None
):
    """rows uniform points of [lo, 1]^n, block (default CHUNK) rows per block.

    Every block is a view of one buffer. rng.uniform(lo, 1) is
    lo + (1 - lo) * r for r = rng.random(), so these are the same numbers,
    in the same order, as one rng.uniform draw of every row.
    """
    block = block or CHUNK
    buf = np.empty((min(block, rows), n))
    for s in range(0, rows, block):
        X = buf[: min(block, rows - s)]
        rng.random(out=X)
        X *= 1 - lo
        X += lo
        yield X


def _square_product(F: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The product over the (n, n, rows) factor square F, row-major, into out.

    The cells below the diagonal hold 1.0, and multiplying by 1.0 is
    exact, so this is _product_batch's total over the same factors.
    """
    n, _, rows = F.shape
    return np.multiply.reduce(F.reshape(n * n, rows), axis=0, out=out)


def _ascend(X: np.ndarray, bound: int):
    """Coordinate ascent from the starts X; (P, vals) of the points it ends at.

    F[i, j] holds the factor 1 - x_i...x_j of every start for i <= j, and
    1.0 below the diagonal; pre[i] holds x_i...x_{c-1} (and pre[c] = 1)
    while column c steps. A step on c rewrites only the rectangle
    F[:c+1, c:] of factors that hold x_c, by running products from pre
    computed as _product_batch computes them, so every value is
    bit-identical to eval_q_batch on the step's points. The rectangle's
    other columns are rewritten by the next column's steps before they
    are read, so after both steps on c only F[:c+1, c] is put right for
    the accepted x_c.
    """
    PT = X.T.copy()  # one contiguous row per coordinate, moved in place
    P = PT.T
    n, rows = PT.shape
    F = _sign_tensor(X)  # x_i...x_j, and 0.0 below the diagonal
    np.subtract(1.0, F, out=F)
    vals = _square_product(F, np.empty(rows))
    _top(vals, P, bound, "ascent")
    pre, qvals = np.empty((n, rows)), np.empty(rows)
    bracket = 1.0
    for _ in range(_ASCENT_ROUNDS):
        for c, col in enumerate(PT):
            pre[c] = 1.0
            rect = F[: c + 1, c:]
            for delta in (bracket, -bracket):
                old = col.copy()
                col += delta
                # np.clip(col, -1.0, 1.0): x_c was in [-1, 1], so a step
                # can pass only the end it moves towards
                if delta > 0:
                    np.minimum(col, 1.0, out=col)
                else:
                    np.maximum(col, -1.0, out=col)
                np.multiply(pre[: c + 1], col, out=rect[:, 0])
                for j in range(1, n - c):
                    np.multiply(rect[:, j - 1], PT[c + j], out=rect[:, j])
                np.subtract(1.0, rect, out=rect)
                _top(_square_product(F, qvals), P, bound, "ascent")
                better = qvals > vals
                np.copyto(col, old, where=~better)
                np.copyto(vals, qvals, where=better)
            np.multiply(pre[: c + 1], col, out=pre[: c + 1])
            np.subtract(1.0, pre[: c + 1], out=rect[:, 0])
        bracket *= 0.5
    return P, vals


def verify_bound(n: int, budget: int = 100_000, seed: int = 0) -> MaxReport:
    """Search for cube-product values above the proven bound.

    Evaluates all candidate maximizers in exact arithmetic (their values
    must equal the bound exactly), then spends `budget` evaluations on
    uniform random points and another `budget` on coordinate-ascent
    refinement from random starts. Any value above bound + PRODUCT_TOL
    raises BoundViolationError; that cannot happen unless an evaluator
    is broken.

    The random points are drawn and evaluated CHUNK rows at a time into
    one reused buffer (_uniform_blocks), the same numbers as one draw, so
    memory holds one block of them. The ascent's starts, about
    budget / (40 n) points, are drawn the same way in blocks of at most
    2 CHUNK / n rows, and each block ascends on its own (_ascend), with
    its n x n square of factors, at most 2 CHUNK n floats; a step
    recomputes only the factors that hold its coordinate.
    bound_cap's rules limit the work of both phases.
    """
    budget = check_count("budget", budget)
    n = check_count("dimension", n, 1)
    starts, rows = bound_cap(n, budget)  # before any number exponential in n
    bound = qmax_bound(n)
    candidates = candidate_maximizers(n)
    for cand in candidates:
        val = eval_q(cand, exact=True)
        if val != bound:
            raise BoundViolationError(
                f"candidate {cand} evaluates to {val}, expected {bound}"
            )
    best_value = float(bound)
    best_point = tuple(float(c) for c in candidates[0])
    method = "vertex-enum"
    rng = _rng(seed)
    blocks = ((X, eval_q_batch(X)) for X in _uniform_blocks(rng, budget, n, -1))
    top, point, _ = _sweep(blocks, bound, "random")
    if top > best_value:
        best_value, best_point, method = top, point, "random"
    # a block's best replaces only a strictly smaller one, so the point is
    # the first start to reach the best value, as in one block of them all
    for X in _uniform_blocks(rng, starts, n, -1, rows):
        P, vals = _ascend(X, bound)
        idx = int(np.argmax(vals))
        if vals[idx] > best_value:
            best_value, best_point = float(vals[idx]), tuple(P[idx].tolist())
            method = "coordinate-ascent"

    return MaxReport(
        n=n,
        best_value=best_value,
        best_point=best_point,
        method=method,
        bound=bound,
        within_bound=True,
        attained=best_value == float(bound),
        evaluations=len(candidates) + budget + starts * (1 + 2 * _ASCENT_ROUNDS * n),
        seed=seed,
        budget=budget,
    )


def _block_values(head, T, tail, p, f, vals) -> np.ndarray:
    """The cube product at every point of a grid block, into vals.

    The block's points share the first h coordinates, head (floats), and
    take their last t from the columns T; tail gives the factors of the
    tail rows (h <= i <= j) in row-major order. A factor of the head alone
    is one float, and the running product of a mixed factor (i < h <= j)
    starts from the head's float. Every factor goes into the total in
    _product_batch's order through the same IEEE operations, so the values
    are bit-identical to eval_q_batch on the block's points.
    """
    total = 1.0  # a float until the first mixed factor, then vals
    for i in range(len(head)):
        q = 1.0
        for j in range(i, len(head)):
            q *= head[j]
            total *= 1.0 - q
        for j, x in enumerate(T):
            np.multiply(p if j else q, x, out=p)
            np.subtract(1.0, p, out=f)
            total = np.multiply(total, f, out=vals)
    for factor in tail:
        total = np.multiply(total, factor, out=vals)
    return total


def _grid_blocks(n: int, m: int):
    """(X, vals) for the grid {k/m : -m <= k <= m}^n in lexicographic order.

    Each block X is one value of the first h = n - t coordinates, its
    head, with K^t values of the last t, its tail, for the largest t with
    K^t <= CHUNK (K = 2m + 1), or t = 1 with the last axis cut into pieces
    of CHUNK points if K > CHUNK. Pieces imply h = 0: K > CHUNK gives
    K^2 > _GRID_POINT_CAP, which grid_max refuses for every n >= 2. vals
    holds the cube product at X's points, bit-identical to eval_q_batch(X)
    (_block_values). Every X is a view of one (<= CHUNK, n) buffer and
    every vals of one array. Per tail piece, its columns are written once,
    then its t(t + 1)/2 <= 36 factor rows of <= CHUNK floats, which every
    head reuses, so the sweep holds one block plus those rows.
    """
    K = 2 * m + 1
    t = 1
    while t < n and K ** (t + 1) <= CHUNK:
        t += 1
    h, points = n - t, K**t
    rows = min(points, CHUNK)
    # column-major, so T, the (t, rows) view of the tail columns, is contiguous
    buf = np.empty((rows, n), order="F")
    T = buf[:, h:].T
    p, f, vals = np.empty(rows), np.empty(rows), np.empty(rows)
    g = (np.arange(-m, m + 1) / m).tolist() if h else []
    for s in range(0, points, CHUNK):
        k = min(CHUNK, points - s)
        idx = np.arange(s, s + k)
        for c, col in enumerate(T):
            np.divide(idx // K ** (t - 1 - c) % K - m, m, out=col[:k])
        del idx  # before the factor rows are made
        Tk, pk = T[:, :k], p[:k]
        # 1 - x_i ... x_j (h <= i <= j) in _product_batch's order, computed
        # as that kernel does, with the running product in pk
        tail = np.empty((t * (t + 1) // 2, k))
        row = iter(tail)
        for i, x in enumerate(Tk):
            np.copyto(pk, x)
            for j in range(i, t):
                if j > i:
                    np.multiply(pk, Tk[j], out=pk)
                np.subtract(1.0, pk, out=next(row))
        for head in itertools.product(g, repeat=h):
            buf[:, :h] = head
            yield buf[:k], _block_values(head, Tk, tail, pk, f[:k], vals[:k])


def grid_max(n: int, step: float) -> MaxReport:
    """Exhaustive cube-product sweep over the uniform grid of pitch `step`.

    step must divide 1 evenly so that -1, 0 and 1 are grid points; then
    the known maximizers lie on the grid and the sweep must attain the
    bound exactly. Grid points attaining the bound outside the known
    family are returned as findings, not failures. The points go in
    lexicographic blocks of at most CHUNK rows, written into one reused
    buffer and evaluated from their shared tail's factors (_grid_blocks),
    bit-identical to eval_q_batch; memory holds one block plus the factor
    rows of the tail's current piece, at most t(t + 1)/2 <= 36 rows of
    <= CHUNK floats. A grid over _GRID_POINT_CAP points is refused before
    any work, and a dimension over the cap's bit length before K^n is
    computed.
    """
    n = check_count("dimension", n, 1)
    check_positive("step", step)
    # below 1/cap one axis alone is over the cap, and 1 / step may overflow
    if step * _GRID_POINT_CAP < 1:
        raise ResourceLimitError(
            f"grid step {step} is below 1/{_GRID_POINT_CAP}, cap is {_GRID_POINT_CAP}"
        )
    # a step above 1 cannot divide 1, and 1.0 / step overflows for a huge int
    m = round(1.0 / step) if step <= 1 else 0
    if m < 1 or abs(m * step - 1.0) > 1e-9:
        raise DomainError(f"step {step} does not divide 1 evenly")
    # K >= 3, so K^n is over the cap for every n over the cap's bit length;
    # the clamp keeps the power small, and exact for every grid the cap admits
    K = 2 * m + 1
    total = K ** min(n, _GRID_POINT_CAP.bit_length() + 1)
    _check_cap(total, _GRID_POINT_CAP, "grid would have {}^{} points", K, n)
    bound = qmax_bound(n)
    best_value, best_point, near = _sweep(_grid_blocks(n, m), bound, "grid")
    known = set(candidate_maximizers(n))
    findings = tuple(p for p in near if p not in known)
    return MaxReport(
        n=n,
        best_value=best_value,
        best_point=best_point,
        method="grid",
        bound=bound,
        within_bound=True,
        attained=best_value == float(bound),
        evaluations=total,
        step=step,
        findings=findings,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Exhaustive check of the three sign-counting identities.

    For every generated scheme: the four corners of any sub-square
    multiply to +1; at every '-' entry the row sum equals minus the
    column sum; and at '-' entries with i + j odd the sums satisfy
    V = 2*Vw - 1, H = 2*Hw - 1 and Hw + Vw = 1, where Hw and Vw count
    wrong entries signed by the sign they carry.
    """

    n_max: int
    vectors_checked: int
    squares_checked: int
    sums_checked: int
    parity_checked: int
    exhaustive: bool
    seed: int
    violations: tuple[str, ...]

    def summary(self) -> str:
        return (
            f"vectors={self.vectors_checked} squares={self.squares_checked} "
            f"sums={self.sums_checked} parity={self.parity_checked} "
            f"seed={self.seed} violations={len(self.violations)}"
        )


def _sign_tensor(E: np.ndarray) -> np.ndarray:
    """The schemes of the (B, n) sign vectors E, as an (n, n, B) tensor.

    Entry [i, j, b] is E[b, i] * ... * E[b, j] for i <= j, built by
    running products along each row, left to right as _product_batch
    builds them; entries below the diagonal are 0. E may hold any
    floats: _ascend builds its factor squares from this tensor.
    """
    B, n = E.shape
    cols = np.ascontiguousarray(E.T)
    C = np.zeros((n, n, B))
    for i in range(n):
        np.multiply.accumulate(cols[i:], axis=0, out=C[i, i:])
    return C


def _cells(mask: np.ndarray):
    """The index tuples of mask's true cells."""
    return zip(*np.nonzero(mask))


def _identity_violations(
    C: np.ndarray, eps: list, target: np.ndarray
) -> tuple[int, int, list[str]]:
    """Check the identities on the scheme tensor C of the sign vectors eps.

    target is the target scheme's tensor, that of the all-minus vector.
    Returns the number of sum checks (one per '-' entry), the number of
    parity checks (one per '-' entry with i + j odd) and one message per
    failing cell. Every square of every scheme is checked.
    """
    n, _, B = C.shape
    messages = []
    # Square (i,i2;j,j2) is A[i,j] * A[i,j2] with A = C[:i2] * C[i2] over
    # j > i2. The entries are +-1, so all of these are +1 where A is
    # constant along j; only a row i2 where it is not needs the products.
    for i2 in range(1, n - 2):
        A = C[:i2, i2 + 1 :] * C[i2, i2 + 1 :]
        if np.count_nonzero(A[:, 1:] != A[:, :-1]):
            for i, j, j2, b in _cells(A[:, :, None] * A[:, None] != PLUS):
                if j < j2:
                    messages.append(
                        f"square product != +1 at ({i + 1},{i2 + 1};"
                        f"{i2 + j + 2},{i2 + j2 + 2}) for {eps[b]}"
                    )

    # Row by row from the bottom. H[j] sums C[i,u] for i <= u < j; V and
    # Vw hold the column sums of C and of its wrong entries over the rows
    # below i, which give V[i,j] for i < v <= j. Wrong entries count with
    # their sign: (C - target) / 2 is C where C differs from the target.
    minus = C == MINUS
    odd = minus & (target == PLUS)  # '-' entries with i + j odd
    V, Vw = np.zeros((n, B)), np.zeros((n, B))
    for i in range(n - 1, -1, -1):
        row = C[i]
        wrong = 0.5 * (row - target[i])
        H = np.cumsum(row, axis=0) - row
        Hw = np.cumsum(wrong, axis=0) - wrong
        for j, b in _cells(minus[i] & (H + V != 0)):
            messages.append(
                f"row sum {int(H[j, b])} != -(column sum {int(V[j, b])}) "
                f"at ({i + 1},{j + 1}) for {eps[b]}"
            )
        bad = odd[i] & ((V != 2 * Vw - 1) | (H != 2 * Hw - 1) | (Hw + Vw != 1))
        for j, b in _cells(bad):
            messages.append(
                f"parity identity fails at ({i + 1},{j + 1}) for {eps[b]}: "
                f"H={int(H[j, b])}, V={int(V[j, b])}, "
                f"Hw={int(Hw[j, b])}, Vw={int(Vw[j, b])}"
            )
        V += row
        Vw += wrong
    sums, parity = int(np.count_nonzero(minus)), int(np.count_nonzero(odd))
    return sums, parity, messages


def verify_identities(n_max: int, seed: int = 0) -> IdentityReport:
    """Check the counting identities over all schemes up to n_max.

    Exhaustive over all 2^n sign vectors for n <= 16; beyond that each
    dimension gets 512 random vectors instead. The vectors go in blocks
    through _sign_tensor, which builds their schemes by its own running
    products, and _identity_violations. For each dimension the first
    and last scheme are also compared with generate_scheme.

    Raises ResourceLimitError, before any work, when the sweep would
    check more than _SQUARE_CAP (2e8) squares: n_max = 16 (1.9e8
    squares, a few seconds) and n_max = 21 run, n_max = 22 does not.
    """
    n_max = check_count("n_max", n_max, 1)
    identities_cap(n_max)
    rng = _rng(seed)
    vectors = squares = sums = parity = 0
    violations: list[str] = []
    for n in range(1, n_max + 1):
        if n <= _EXHAUSTIVE_N:
            pool = all_sign_vectors(n)
            ends = [(PLUS,) * n, (MINUS,) * n]
        else:
            pool = [
                tuple(int(v) for v in rng.choice((PLUS, MINUS), size=n))
                for _ in range(_POOL)
            ]
            ends = [pool[0], pool[-1]]
        C = _sign_tensor(np.array(ends, dtype=float))
        for b, eps in enumerate(ends):
            rows = generate_scheme(eps).rows
            if any(C[i, i:, b].tolist() != list(r) for i, r in enumerate(rows)):
                violations.append(
                    f"sign tensor differs from generate_scheme for {eps}"
                )
        pool = iter(pool)
        target = _sign_tensor(np.full((1, n), float(MINUS)))
        while block := list(itertools.islice(pool, _BLOCK)):
            C = _sign_tensor(np.array(block, dtype=float))
            block_sums, block_parity, found = _identity_violations(C, block, target)
            vectors += len(block)
            squares += len(block) * math.comb(n, 4)
            sums += block_sums
            parity += block_parity
            violations += found
    return IdentityReport(
        n_max=n_max,
        vectors_checked=vectors,
        squares_checked=squares,
        sums_checked=sums,
        parity_checked=parity,
        exhaustive=n_max <= _EXHAUSTIVE_N,
        seed=seed,
        violations=tuple(sorted(violations)),
    )


@dataclass(frozen=True)
class InequalityReport:
    """Sampled check of the four factor inequalities on [0,1]^3."""

    samples: int
    seed: int
    checked: int
    corner_checks: int
    max_residual: float
    violations: tuple[str, ...]

    def summary(self) -> str:
        return (
            f"samples={self.samples} corners={self.corner_checks} "
            f"max_residual={self.max_residual:.3g} seed={self.seed} "
            f"violations={len(self.violations)}"
        )


def verify_inequalities(samples: int = 100_000, seed: int = 0) -> InequalityReport:
    """Sample the four factor inequalities at random points plus corners.

    Random points are checked vectorized, CHUNK points at a time, drawn
    into one reused buffer (_uniform_blocks): the same numbers as one
    draw, with the first ten violations of each inequality kept in point
    order, so memory holds one block of points.
    inequalities_cap's rule, 3 * samples floats, limits work. The 8
    corners of the cube go through the scalar evaluator with exact
    integer arithmetic. Also tracks the largest deviation of the
    quad_swap gap from its closed factored form, which must stay at
    roundoff level.
    """
    samples = check_count("samples", samples)
    inequalities_cap(samples)
    rng = _rng(seed)
    found: dict[str, list[str]] = {which: [] for which in INEQUALITY_SIDES}
    max_residual = 0.0
    for pts in _uniform_blocks(rng, samples, 3, 0):
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        for which, sides in INEQUALITY_SIDES.items():
            lhs, rhs = np.broadcast_arrays(*sides(x, y, z))
            # written so that a NaN on either side counts as a violation
            bad = np.nonzero(~(lhs <= rhs + FACTOR_TOL))[0]
            for idx in bad[: 10 - len(found[which])]:
                found[which].append(
                    f"{which} fails at {tuple(pts[idx].tolist())}: "
                    f"{float(lhs[idx])} > {float(rhs[idx])}"
                )
        residual = np.abs(quad_swap_residual(x, y, z))
        max_residual = float(np.max(residual, initial=max_residual))  # keeps a NaN
    violations = [v for msgs in found.values() for v in msgs]
    if not max_residual <= FACTOR_TOL:
        violations.append(f"quad_swap gap factorization off by {max_residual}")
    corner_checks = 0
    for cx, cy, cz in itertools.product((0, 1), repeat=3):
        for which in FACTOR_INEQUALITIES:
            corner_checks += 1
            res = check_factor_inequality(which, cx, cy, cz)
            if not res.holds:
                violations.append(
                    f"{which} fails at corner ({cx},{cy},{cz}): "
                    f"{res.lhs} > {res.rhs}"
                )
            if res.residual:
                violations.append(
                    f"quad_swap gap factorization off at corner "
                    f"({cx},{cy},{cz}): {res.residual}"
                )
    return InequalityReport(
        samples=samples,
        seed=seed,
        checked=samples * len(INEQUALITY_SIDES),
        corner_checks=corner_checks,
        max_residual=max_residual,
        violations=tuple(sorted(violations)),
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled check that certificate moves never decrease the product."""

    n_max: int
    certificates: int
    moves_checked: int
    samples_per_move: int
    seed: int
    violations: tuple[str, ...]

    def summary(self) -> str:
        return (
            f"certificates={self.certificates} moves={self.moves_checked} "
            f"samples_per_move={self.samples_per_move} seed={self.seed} "
            f"violations={len(self.violations)}"
        )


def _move_violations(run, Z, samples_per_move: int) -> list[str]:
    """Check a run of moves on their z-samples, samples_per_move rows each.

    run holds one (eps, move, pre, post) per move, where post is the move
    applied to the scheme pre, so pre shows the move's pattern; the run
    may span certificates. Move k's samples start at row
    k*samples_per_move. F goes through one grouped eval_f_batch call for
    all the pre schemes and one for all the post schemes; the local
    factor product is checked move by move.
    """
    _, _, pre, post = zip(*run)
    f_before = eval_f_batch(pre, Z)
    f_after = eval_f_batch(post, Z)
    violations = []
    for k, (eps, move, _, _) in enumerate(run):
        rows = slice(k * samples_per_move, (k + 1) * samples_per_move)
        Zk = Z[rows]
        local = np.ones(samples_per_move)
        for (i, j), sign in zip(move.touched_positions(), move.required_signs()):
            prods = np.multiply.reduce(Zk[:, i - 1 : j], axis=1)
            local = local * (1 - sign * prods)
        worst_local = float(np.max(local)) if samples_per_move else 0.0
        if not worst_local <= 1 + FACTOR_TOL:
            violations.append(
                f"local factor product {worst_local} > 1 for {move} on {eps}"
            )
        before, after = f_before[rows], f_after[rows]
        # written so that a NaN on either side counts as a drop
        drop = np.nonzero(~(before <= after + PRODUCT_TOL))[0]
        for idx in drop[:10]:
            violations.append(
                f"F decreased across {move} on {eps} "
                f"at z={tuple(Zk[idx].tolist())}: "
                f"{float(before[idx])} > {float(after[idx])}"
            )
    return violations


def verify_monotonicity(
    n_max: int, samples_per_move: int = 100, seed: int = 0
) -> MonotonicityReport:
    """Replay every certificate up to n_max, sampling F before and after
    each move and checking the local factor-product bound.

    Each move gets its own samples_per_move uniform z-samples, which must
    give F_before <= F_after up to PRODUCT_TOL; the product of the move's
    touched factors in the pre-move scheme must stay <= 1 up to
    FACTOR_TOL. Each certificate's moves are replayed first; a move that
    cannot be applied is a violation and ends that certificate's replay,
    and moves_checked counts the moves replayed. Whole certificates then
    gather into runs of at most _RUN_ROWS sample rows, and each run is
    checked together: one draw of z-samples, one grouped eval_f_batch call
    for the schemes before the moves and one for the schemes after. A run
    is checked when the next certificate would not fit in it, and at the
    end of each dimension, so a certificate with more rows than a run is
    checked alone, split into blocks of moves so that no draw holds more
    than _FLOAT_CAP floats. The draws are the same numbers as one draw per
    move.
    """
    n_max = check_count("n_max", n_max, 1)
    samples_per_move = check_count("samples_per_move", samples_per_move)
    monotonicity_cap(n_max, samples_per_move)
    rng = _rng(seed)
    certificates = moves_checked = 0
    violations: list[str] = []
    for n in range(1, n_max + 1):
        per_draw = _FLOAT_CAP // max(1, n * samples_per_move)  # moves per draw
        per_run = min(per_draw, _RUN_ROWS // max(1, samples_per_move))
        run: list = []

        def check() -> None:
            for a in range(0, len(run), per_draw):
                block = run[a : a + per_draw]
                Z = rng.uniform(0.0, 1.0, size=(len(block) * samples_per_move, n))
                violations.extend(_move_violations(block, Z, samples_per_move))
            run.clear()

        for eps in all_sign_vectors(n):
            cert = build_certificate(eps)
            certificates += 1
            if len(run) + len(cert.moves) > per_run:
                check()
            start = len(run)
            scheme = generate_scheme(eps)
            try:
                for move in cert.moves:
                    after = apply_move(scheme, move)
                    run.append((eps, move, scheme, after))
                    scheme = after
            except (InvalidMoveError, TriangleIndexError) as exc:
                violations.append(f"certificate for {eps}: {exc}")
            else:
                if not is_reference(scheme):
                    violations.append(f"certificate for {eps} does not reach the target")
            moves_checked += len(run) - start
        check()
    return MonotonicityReport(
        n_max=n_max,
        certificates=certificates,
        moves_checked=moves_checked,
        samples_per_move=samples_per_move,
        seed=seed,
        violations=tuple(sorted(violations)),
    )
