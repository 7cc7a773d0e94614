"""The oracle's sweeps against the loops they replace.

_reference_identities is verify_identities as first written: one
generated scheme per sign vector, checked with the scalar square, sum
and count helpers. The package checks the identities on blocks of sign
tensors; both must give the same report, violation messages included,
for the same arguments.

_reference_grid_max and _reference_verify_bound are the cube-maximum
searches with their own block loops: the grid built whole from a
meshgrid of its last n - 1 coordinates, one block per first coordinate,
and the random phase as a countdown of batches. The package feeds both
through one bounded sweep; the reports must be equal, points, findings
and evaluation counts included. The package evaluates each grid block
from its shared tail's factors, and each ascent step from the factor
square it keeps for its block of starts; every block's and every step's
values must equal eval_q_batch's on its points byte for byte.

_reference_verify_inequalities is verify_inequalities with all its
points in one array. The package draws them in blocks of CHUNK rows;
the reports must be equal, violation messages included.

_reference_monotonicity is verify_monotonicity as first written: one
draw of z-samples and two eval_f_batch calls per move. The package draws
and evaluates runs of whole certificates together; the reports must be
equal.

The scalar helpers WrongCounts, horizontal_sum, vertical_sum,
wrong_counts and square_sign_product live here, not in the package:
they are the independent reference for the identity sweep, and
tests/test_schemes.py tests them on their own.
"""

import itertools
import math
import tracemalloc
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest

from signschemes import (
    IdentityReport,
    InequalityReport,
    MaxReport,
    MonotonicityReport,
    Scheme,
    TriangleIndexError,
    all_sign_vectors,
    apply_move,
    build_certificate,
    candidate_maximizers,
    check_factor_inequality,
    eval_f_batch,
    eval_q,
    eval_q_batch,
    generate_scheme,
    grid_max,
    is_reference,
    qmax_bound,
    reference_sign,
    verify_bound,
    verify_identities,
    verify_inequalities,
    verify_monotonicity,
)
from signschemes import evaluate, oracle
from signschemes.evaluate import CHUNK
from signschemes.schemes import MINUS, PLUS


class WrongCounts(NamedTuple):
    """Counts of incorrectly signed entries in a row and column tail.

    For a position (i, j): h_* count entries (i, u) with i <= u < j,
    v_* count entries (v, j) with i < v <= j, split by the sign the
    entry actually carries.
    """

    h_plus: int
    h_minus: int
    v_plus: int
    v_minus: int
    h: int
    v: int


def horizontal_sum(scheme: Scheme, i: int, j: int) -> int:
    """Sum of the signs C[i, u] for i <= u < j."""
    scheme.check_position(i, j)
    return sum(scheme.rows[i - 1][: j - i])


def vertical_sum(scheme: Scheme, i: int, j: int) -> int:
    """Sum of the signs C[v, j] for i < v <= j."""
    scheme.check_position(i, j)
    return sum(scheme.sign(v, j) for v in range(i + 1, j + 1))


def wrong_counts(scheme: Scheme, i: int, j: int) -> WrongCounts:
    """Counts of wrongly signed entries left of and below (i, j).

    Splits the row segment (i, u), i <= u < j, and the column segment
    (v, j), i < v <= j, by the sign each wrong entry carries.
    """
    scheme.check_position(i, j)
    h_plus = h_minus = 0
    for u in range(i, j):
        s = scheme.sign(i, u)
        if s != reference_sign(i, u):
            if s == PLUS:
                h_plus += 1
            else:
                h_minus += 1
    v_plus = v_minus = 0
    for v in range(i + 1, j + 1):
        s = scheme.sign(v, j)
        if s != reference_sign(v, j):
            if s == PLUS:
                v_plus += 1
            else:
                v_minus += 1
    return WrongCounts(
        h_plus, h_minus, v_plus, v_minus, h_plus - h_minus, v_plus - v_minus
    )


def square_sign_product(scheme: Scheme, i: int, i2: int, j: int, j2: int) -> int:
    """Product C[i,j] * C[i2,j] * C[i,j2] * C[i2,j2] for i < i2 < j < j2.

    For generated schemes this is always +1: each factor is a consecutive
    product of eps entries and every eps entry appears an even number of
    times across the four corners.
    """
    if not (i < i2 < j < j2):
        raise TriangleIndexError(
            f"square corners need i < i2 < j < j2, got ({i}, {i2}; {j}, {j2})"
        )
    scheme.check_position(i, j)
    scheme.check_position(i2, j2)
    return (
        scheme.sign(i, j)
        * scheme.sign(i2, j)
        * scheme.sign(i, j2)
        * scheme.sign(i2, j2)
    )


def _reference_identities(n_max, seed=0, generate=generate_scheme, exhaustive_n=16):
    rng = np.random.default_rng(seed)
    vectors = squares = sums = parity = 0
    violations = []
    for n in range(1, n_max + 1):
        if n <= exhaustive_n:
            pool = all_sign_vectors(n)
        else:
            pool = (
                tuple(int(v) for v in rng.choice((PLUS, MINUS), size=n))
                for _ in range(512)
            )
        for eps in pool:
            scheme = generate(eps)
            vectors += 1
            for i, i2, j, j2 in itertools.combinations(range(1, n + 1), 4):
                squares += 1
                if square_sign_product(scheme, i, i2, j, j2) != PLUS:
                    violations.append(
                        f"square product != +1 at ({i},{i2};{j},{j2}) for {eps}"
                    )
            for i, j in scheme.positions():
                if scheme.sign(i, j) != MINUS:
                    continue
                h = horizontal_sum(scheme, i, j)
                v = vertical_sum(scheme, i, j)
                sums += 1
                if h != -v:
                    violations.append(
                        f"row sum {h} != -(column sum {v}) at ({i},{j}) for {eps}"
                    )
                if (i + j) % 2 == 1:
                    parity += 1
                    w = wrong_counts(scheme, i, j)
                    if v != 2 * w.v - 1 or h != 2 * w.h - 1 or w.h + w.v != 1:
                        violations.append(
                            f"parity identity fails at ({i},{j}) for {eps}: "
                            f"H={h}, V={v}, Hw={w.h}, Vw={w.v}"
                        )
    return IdentityReport(
        n_max=n_max,
        vectors_checked=vectors,
        squares_checked=squares,
        sums_checked=sums,
        parity_checked=parity,
        exhaustive=n_max <= exhaustive_n,
        seed=seed,
        violations=tuple(sorted(violations)),
    )


@pytest.mark.parametrize("n_max", range(1, 11))
def test_identities_match_reference(n_max):
    assert verify_identities(n_max, seed=3) == _reference_identities(n_max, seed=3)


def test_random_pools_match_reference(monkeypatch):
    # Above the exhaustive limit each dimension draws 512 random vectors;
    # lowering the limit runs that path at small n.
    monkeypatch.setattr(oracle, "_EXHAUSTIVE_N", 4)
    for seed in (0, 17):
        rep = verify_identities(7, seed=seed)
        assert not rep.exhaustive and rep.vectors_checked == 30 + 3 * 512
        assert rep == _reference_identities(7, seed=seed, exhaustive_n=4)


@pytest.mark.parametrize("exhaustive_n", [oracle._EXHAUSTIVE_N, 4])
def test_identity_reports_do_not_depend_on_block_size(monkeypatch, exhaustive_n):
    # Counts add across blocks and violations are sorted. With the
    # exhaustive limit at 4, the random pools are cut into blocks too.
    monkeypatch.setattr(oracle, "_EXHAUSTIVE_N", exhaustive_n)
    reports = []
    for block in (1, 7, 256):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        reports.append(verify_identities(9, seed=5))
    assert reports[0] == reports[1] == reports[2]


# A vector away from the cross-checked first and last of its dimension,
# and one of its '+' cells (2,5) with i + j odd, so that every identity
# involving that cell sees the flip.
TARGET = (1, -1, 1, 1, -1, 1)
CELL = (2, 5)


def test_corrupted_cell_gives_reference_violations(monkeypatch):
    build = oracle._sign_tensor

    def corrupt_tensor(E):
        C = build(E)
        for b, row in enumerate(E.tolist()):
            if tuple(row) == TARGET:
                C[CELL[0] - 1, CELL[1] - 1, b] *= -1
        return C

    def corrupt_generate(eps):
        scheme = generate_scheme(eps)
        return scheme.with_flipped([CELL]) if tuple(eps) == TARGET else scheme

    assert generate_scheme(TARGET).sign(*CELL) == PLUS
    monkeypatch.setattr(oracle, "_sign_tensor", corrupt_tensor)
    rep = verify_identities(6)
    ref = _reference_identities(6, generate=corrupt_generate)
    assert rep.violations and all(str(TARGET) in v for v in rep.violations)
    assert {v.split(" ")[0] for v in rep.violations} == {"square", "row", "parity"}
    assert rep == ref


def test_cross_check_catches_a_wrong_tensor(monkeypatch):
    build = oracle._sign_tensor

    def corrupt_tensor(E):
        C = build(E)
        C[0, 0] *= -1
        return C

    monkeypatch.setattr(oracle, "_sign_tensor", corrupt_tensor)
    rep = verify_identities(3)
    assert "sign tensor differs from generate_scheme for (1, 1, 1)" in rep.violations
    assert "sign tensor differs from generate_scheme for (-1, -1, -1)" in rep.violations


def _reference_grid_max(n, step):
    m = round(1.0 / step)
    g = np.array([k / m for k in range(-m, m + 1)])
    bound = qmax_bound(n)
    near = bound - 1e-12
    if n == 1:
        tail = np.empty((1, 0))
    else:
        mesh = np.meshgrid(*([g] * (n - 1)), indexing="ij")
        tail = np.stack(mesh, axis=-1).reshape(-1, n - 1)
    best_value = -math.inf
    best_point = ()
    attainers = []
    evaluations = 0
    for v in g:
        X = np.concatenate([np.full((tail.shape[0], 1), v), tail], axis=1)
        vals = eval_q_batch(X)
        evaluations += X.shape[0]
        idx, top = oracle._top(vals, X, bound, "grid")
        if top > best_value:
            best_value, best_point = top, tuple(X[idx].tolist())
        attainers += map(tuple, X[vals >= near].tolist())
    known = set(oracle.candidate_maximizers(n))
    findings = tuple(p for p in attainers if p not in known)
    return MaxReport(
        n=n,
        best_value=best_value,
        best_point=best_point,
        method="grid",
        bound=bound,
        within_bound=True,
        attained=best_value == float(bound),
        evaluations=evaluations,
        step=step,
        findings=findings,
    )


def _reference_verify_bound(n, budget, seed=0):
    bound = qmax_bound(n)
    rounds = 20
    starts = max(1, budget // (2 * rounds * n))
    candidates = candidate_maximizers(n)
    for cand in candidates:
        assert eval_q(cand, exact=True) == bound
    best_value = float(bound)
    best_point = tuple(float(c) for c in candidates[0])
    method = "vertex-enum"
    evaluations = len(candidates)
    rng = np.random.default_rng(seed)

    remaining = budget
    while remaining > 0:
        m = min(remaining, oracle._BATCH)
        X = rng.uniform(-1.0, 1.0, size=(m, n))
        vals = eval_q_batch(X)
        evaluations += m
        idx, top = oracle._top(vals, X, bound, "random")
        if top > best_value:
            best_value, best_point, method = top, tuple(X[idx].tolist()), "random"
        remaining -= m

    P = rng.uniform(-1.0, 1.0, size=(starts, n))
    vals = eval_q_batch(P)
    oracle._top(vals, P, bound, "ascent")
    evaluations += starts
    bracket = 1.0
    for _ in range(rounds):
        for c in range(n):
            for delta in (bracket, -bracket):
                Q = P.copy()
                Q[:, c] = np.clip(Q[:, c] + delta, -1.0, 1.0)
                qvals = eval_q_batch(Q)
                oracle._top(qvals, Q, bound, "ascent")
                evaluations += starts
                better = qvals > vals
                P[better] = Q[better]
                vals = np.where(better, qvals, vals)
        bracket *= 0.5
    idx = int(np.argmax(vals))
    top = float(vals[idx])
    if top > best_value:
        best_value, best_point = top, tuple(P[idx].tolist())
        method = "coordinate-ascent"
    return MaxReport(
        n=n,
        best_value=best_value,
        best_point=best_point,
        method=method,
        bound=bound,
        within_bound=True,
        attained=best_value == float(bound),
        evaluations=evaluations,
        seed=seed,
        budget=budget,
    )


@pytest.mark.parametrize(
    "n,step", [(1, 1.0), (1, 0.01), (2, 0.5), (3, 0.05), (4, 0.25), (7, 0.25), (12, 1.0)]
)
def test_grid_max_matches_reference(n, step):
    rep = grid_max(n, step)
    assert rep == _reference_grid_max(n, step)
    assert rep.evaluations == round(2 / step + 1) ** n


def test_grid_findings_match_reference(monkeypatch):
    # With no known maximizers every attaining point is a finding, and
    # blocks of 25 points put them in different blocks.
    monkeypatch.setattr(oracle, "candidate_maximizers", lambda n: ())
    monkeypatch.setattr(oracle, "CHUNK", 25)
    rep = grid_max(6, 0.5)
    assert len(rep.findings) == 4
    assert rep == _reference_grid_max(6, 0.5)


def _grid_block_copies(monkeypatch, n, step):
    """The (X, vals bytes) of every block grid_max(n, step) sweeps.

    Each block is a view of reused buffers, so the spy copies it.
    """
    copies = []
    grid_blocks = oracle._grid_blocks

    def spy(n, m):
        for X, vals in grid_blocks(n, m):
            copies.append((np.array(X), vals.tobytes()))
            yield X, vals

    monkeypatch.setattr(oracle, "_grid_blocks", spy)
    grid_max(n, step)
    return copies


GRID_BLOCK_CASES = [
    (1, 1.0), (1, 2e-4), (2, 0.01), (3, 0.05), (4, 0.25), (5, 0.5), (7, 0.25)
]


@pytest.mark.parametrize("n,step", GRID_BLOCK_CASES)
def test_grid_blocks_are_the_lexicographic_grid(monkeypatch, n, step):
    blocks = [X for X, _ in _grid_block_copies(monkeypatch, n, step)]
    m = round(1 / step)
    g = [k / m for k in range(-m, m + 1)]
    assert all(len(X) <= CHUNK for X in blocks)
    assert np.array_equal(np.concatenate(blocks), list(itertools.product(g, repeat=n)))


@pytest.mark.parametrize(
    "budget,n",
    [(b, n) for b in (0, 1, oracle._BATCH, oracle._BATCH + 1) for n in range(1, 5)]
    + [(4_000, 8), (4_000, 12)]
    + [(b, n) for b in (CHUNK - 1, CHUNK, CHUNK + 1) for n in range(1, 5)],
)
def test_verify_bound_matches_reference(n, budget):
    assert verify_bound(n, budget, seed=5) == _reference_verify_bound(n, budget, seed=5)


def _joined(batches, steps):
    """The (where, X bytes, values bytes) batches, each run of random
    blocks joined into one, and each ascent step joined across the blocks
    of starts: rows are contiguous, so the bytes of a block's rows follow
    those of the block before. Every block of starts has steps batches.
    """
    out = []
    ascent = [b for b in batches if b[0] == "ascent"]
    for where, X, vals in batches:
        if where == "ascent":
            break
        if out and out[-1][0] == where == "random":
            out[-1] = (where, out[-1][1] + X, out[-1][2] + vals)
        else:
            out.append((where, X, vals))
    assert len(ascent) % steps == 0
    for k in range(steps):
        _, X, vals = zip(*ascent[k::steps])
        out.append(("ascent", b"".join(X), b"".join(vals)))
    return out


@pytest.mark.parametrize(
    "n,budget,chunk",
    [
        pytest.param(1, 4_000, CHUNK, id="1"),
        pytest.param(3, 4_000, CHUNK, id="3"),
        pytest.param(8, 4_000, CHUNK, id="8"),
        pytest.param(12, 10_000, CHUNK, id="12"),
        pytest.param(3, CHUNK + 5, CHUNK, id="3-CHUNK+5"),
        # starts = 33 in blocks of 2 * 25 // 3 = 16 rows: 16, 16 and 1
        pytest.param(3, 4_000, 25, id="3-blocks"),
    ],
)
def test_verify_bound_evaluates_the_reference_points(monkeypatch, n, budget, chunk):
    # The candidates attain the bound, so a report never shows the
    # ascent's points: compare every batch both searches evaluate. The
    # package draws its random points CHUNK rows at a time, and ascends
    # from blocks of at most 2 CHUNK / n starts, the reference in one
    # batch each, so the package's batches are compared joined.
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    seen = []
    top = oracle._top

    def spy(vals, X, bound, where):
        seen.append((where, np.ascontiguousarray(X).tobytes(), vals.tobytes()))
        return top(vals, X, bound, where)

    monkeypatch.setattr(oracle, "_top", spy)
    rep = verify_bound(n, budget, seed=5)
    package = seen[:]
    seen.clear()
    assert rep == _reference_verify_bound(n, budget, seed=5)
    steps = 1 + 2 * oracle._ASCENT_ROUNDS * n
    assert _joined(package, steps) == _joined(seen, steps)
    assert len(seen) == 1 + steps
    starts = budget // (2 * oracle._ASCENT_ROUNDS * n)
    blocks = -(-starts // (2 * chunk // n))
    assert len(package) == -(-budget // chunk) + blocks * steps


@pytest.mark.parametrize(
    "n,step,chunk",
    [(n, step, CHUNK) for n, step in GRID_BLOCK_CASES]
    # four head coordinates; blocks of 25 points leave a tail of two
    + [(12, 1.0, CHUNK), (6, 0.5, 25)],
)
def test_grid_block_values_are_eval_q_batch(monkeypatch, n, step, chunk):
    # Each block's values come from its shared tail's factors and its
    # head's floats; they must be the batch kernel's to the byte.
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    copies = _grid_block_copies(monkeypatch, n, step)
    assert sum(len(X) for X, _ in copies) == round(2 / step + 1) ** n
    for X, vals in copies:
        assert eval_q_batch(X).tobytes() == vals


def test_grid_memory_is_one_block():
    # The whole grid is 9^7 points; one block is 9^4 points of 7 floats,
    # 0.35 MiB.
    tracemalloc.start()
    try:
        grid_max(7, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_grid_axis_memory_is_one_block():
    # One coordinate at step 1e-6 has 2,000,001 points, 15.3 MiB of
    # floats; a block of CHUNK points is 64 KiB.
    tracemalloc.start()
    try:
        grid_max(1, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_grid_memory_is_one_block_and_its_tail_factors():
    # One block of 12 floats per point is 0.6 MiB, and the largest tail,
    # 3^8 points, has 36 factor rows of 6,561 floats, 1.8 MiB; the whole
    # grid is 3^12 points.
    tracemalloc.start()
    try:
        grid_max(12, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize(
    "call,mib",
    [
        # one 250,000-row batch of 12 floats is 22.9 MiB; the random phase
        # holds one block of 8,192 points and the batch kernel's copy of
        # it, 1.5 MiB, and the ascent 1,041 starts' 12 x 12 square of
        # factors, 1.1 MiB
        pytest.param(lambda: verify_bound(12, 500_000), 2, id="bound"),
        # 10^6 points are 22.9 MiB, and each side of an inequality 7.6 MiB
        pytest.param(lambda: verify_inequalities(1_000_000), 4, id="inequalities"),
    ],
)
def test_sampled_memory_is_one_block(call, mib):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


def _reference_verify_inequalities(samples, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(samples, 3))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    violations = []
    for which, sides in oracle.INEQUALITY_SIDES.items():
        lhs, rhs = np.broadcast_arrays(*sides(x, y, z))
        bad = np.nonzero(lhs > rhs + oracle.FACTOR_TOL)[0]
        for idx in bad[:10]:
            violations.append(
                f"{which} fails at {tuple(pts[idx].tolist())}: "
                f"{float(lhs[idx])} > {float(rhs[idx])}"
            )
    residual = evaluate.quad_swap_residual(x, y, z)
    max_residual = float(np.max(np.abs(residual))) if samples else 0.0
    if max_residual > oracle.FACTOR_TOL:
        violations.append(f"quad_swap gap factorization off by {max_residual}")
    corner_checks = 0
    for cx, cy, cz in itertools.product((0, 1), repeat=3):
        for which in oracle.FACTOR_INEQUALITIES:
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
        checked=samples * len(oracle.INEQUALITY_SIDES),
        corner_checks=corner_checks,
        max_residual=max_residual,
        violations=tuple(sorted(violations)),
    )


@pytest.mark.parametrize("samples", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 100_000])
def test_inequalities_match_reference(samples):
    rep = verify_inequalities(samples, seed=5)
    assert rep == _reference_verify_inequalities(samples, seed=5)
    assert rep.violations == ()


@pytest.mark.parametrize("samples,chunk", [(CHUNK + 5, CHUNK), (25, 4)])
def test_inequality_violations_match_reference(monkeypatch, samples, chunk):
    # a tolerance below every gap makes every point a violation, so the
    # first ten of each inequality are kept across block boundaries
    monkeypatch.setattr(oracle, "FACTOR_TOL", -10.0)
    monkeypatch.setattr(oracle, "CHUNK", chunk)
    rep = verify_inequalities(samples, seed=2)
    assert rep == _reference_verify_inequalities(samples, seed=2)
    shown = Counter(v.split()[0] for v in rep.violations if " fails at (" in v)
    assert shown == dict.fromkeys(oracle.INEQUALITY_SIDES, 10)


def test_perturbed_catalogue_matches_reference(monkeypatch):
    # quad_one with 1+xyz for 1-xyz: 0.7 * 1.3^3 > 1 at (1, 0.3, 1)
    def quad_one_mutant(x, y, z):
        return (1 - y) * (1 + x * y) * (1 + y * z) * (1 + x * y * z), 1

    monkeypatch.setitem(evaluate.INEQUALITY_SIDES, "quad_one", quad_one_mutant)
    rep = verify_inequalities(3 * CHUNK, seed=0)
    assert rep == _reference_verify_inequalities(3 * CHUNK, seed=0)
    assert any(v.startswith("quad_one fails at (") for v in rep.violations)


def _reference_monotonicity(n_max, samples_per_move, seed=0):
    rng = np.random.default_rng(seed)
    certificates = moves_checked = 0
    violations = []
    for n in range(1, n_max + 1):
        for eps in all_sign_vectors(n):
            cert = build_certificate(eps)
            certificates += 1
            scheme = generate_scheme(eps)
            for move in cert.moves:
                moves_checked += 1
                Z = rng.uniform(0.0, 1.0, size=(samples_per_move, n))
                local = np.ones(samples_per_move)
                for (i, j) in move.touched_positions():
                    prods = np.prod(Z[:, i - 1 : j], axis=1)
                    local = local * (1 - scheme.sign(i, j) * prods)
                worst_local = float(np.max(local)) if samples_per_move else 0.0
                if not worst_local <= 1 + oracle.FACTOR_TOL:
                    violations.append(
                        f"local factor product {worst_local} > 1 "
                        f"for {move} on {eps}"
                    )
                after = apply_move(scheme, move)
                f_before = eval_f_batch(scheme, Z)
                f_after = eval_f_batch(after, Z)
                drop = np.nonzero(~(f_before <= f_after + oracle.PRODUCT_TOL))[0]
                for idx in drop[:10]:
                    violations.append(
                        f"F decreased across {move} on {eps} "
                        f"at z={tuple(Z[idx].tolist())}: "
                        f"{float(f_before[idx])} > {float(f_after[idx])}"
                    )
                scheme = after
            if not is_reference(scheme):
                violations.append(f"certificate for {eps} does not reach the target")
    return MonotonicityReport(
        n_max=n_max,
        certificates=certificates,
        moves_checked=moves_checked,
        samples_per_move=samples_per_move,
        seed=seed,
        violations=tuple(sorted(violations)),
    )


MONOTONICITY_CASES = [(8, 10, 101), (6, 3, 7), (5, 0, 1), (4, 100, 2), (3, 1, 0)]


@pytest.mark.parametrize("n_max,samples,seed", MONOTONICITY_CASES)
def test_monotonicity_matches_reference(n_max, samples, seed):
    rep = verify_monotonicity(n_max, samples_per_move=samples, seed=seed)
    assert rep == _reference_monotonicity(n_max, samples, seed)
    assert rep.violations == ()


@pytest.mark.parametrize("n_max,samples,seed", MONOTONICITY_CASES + [(4, 12, 3)])
def test_monotonicity_violations_match_reference(monkeypatch, n_max, samples, seed):
    # tolerances below almost every gap turn each sample into a
    # violation; at most 10 "F decreased" lines are kept per move
    monkeypatch.setattr(oracle, "FACTOR_TOL", -10.0)
    monkeypatch.setattr(oracle, "PRODUCT_TOL", -10.0)
    rep = verify_monotonicity(n_max, samples_per_move=samples, seed=seed)
    assert rep == _reference_monotonicity(n_max, samples, seed)
    drops = Counter(
        v.split(" at z=")[0] for v in rep.violations if v.startswith("F decreased")
    )
    assert len(drops) == (rep.moves_checked if samples else 0)
    assert max(drops.values(), default=0) == min(samples, 10)
    local = [v for v in rep.violations if v.startswith("local factor")]
    assert len(local) == rep.moves_checked


def test_monotonicity_draws_stay_under_the_float_cap(monkeypatch):
    # 30 floats per draw: at n = 5 and 3 samples per move, two moves per
    # draw, so every certificate with more than two moves is split
    shapes = []

    def spy(schemes, Z):
        shapes.append((len(schemes), np.shape(Z)))
        return eval_f_batch(schemes, Z)

    monkeypatch.setattr(oracle, "_FLOAT_CAP", 30)
    monkeypatch.setattr(oracle, "eval_f_batch", spy)
    rep = verify_monotonicity(5, samples_per_move=3, seed=4)
    assert rep == _reference_monotonicity(5, 3, seed=4)
    assert all(rows * n <= 30 for _, (rows, n) in shapes)
    assert all(rows == 3 * groups for groups, (rows, _) in shapes)
    assert max(n * groups for groups, (_, n) in shapes) == 10
    assert sum(groups for groups, _ in shapes) == 2 * rep.moves_checked
    assert len(shapes) > 2 * rep.certificates


def _spy_on_runs(monkeypatch):
    """Record each certificate's move count and each eval_f_batch call's
    (groups, rows) while verify_monotonicity runs."""
    sizes, calls = [], []
    build, evaluate = oracle.build_certificate, oracle.eval_f_batch

    def build_spy(eps):
        cert = build(eps)
        sizes.append(len(cert.moves))
        return cert

    def evaluate_spy(schemes, Z):
        calls.append((len(schemes), len(Z)))
        return evaluate(schemes, Z)

    monkeypatch.setattr(oracle, "build_certificate", build_spy)
    monkeypatch.setattr(oracle, "eval_f_batch", evaluate_spy)
    return sizes, calls


def test_monotonicity_runs_span_certificates(monkeypatch):
    # one draw and two eval_f_batch calls per run of certificates, not
    # per certificate: 1,004 calls for the 502 certificates with moves
    _, calls = _spy_on_runs(monkeypatch)
    rep = verify_monotonicity(8, samples_per_move=10)
    assert rep.violations == ()
    assert len(calls) <= 60
    assert sum(groups for groups, _ in calls) == 2 * rep.moves_checked


def test_monotonicity_runs_hold_whole_certificates(monkeypatch):
    # 1,000 samples per move: a run holds two moves, so most certificates
    # are checked alone; none is split between calls
    sizes, calls = _spy_on_runs(monkeypatch)
    rep = verify_monotonicity(8, samples_per_move=1_000)
    assert rep.violations == ()
    ends = [0, *itertools.accumulate(s for s in sizes if s)]
    assert len(calls) <= 2 * (len(ends) - 1)
    # the calls alternate: a run's schemes before its moves, then after
    before = calls[0::2]
    assert before == calls[1::2]
    cuts = [0, *itertools.accumulate(groups for groups, _ in before)]
    assert set(cuts) <= set(ends) and cuts[-1] == rep.moves_checked
    for (_, rows), a, b in zip(before, cuts, cuts[1:]):
        # more than _RUN_ROWS rows only for one certificate alone
        assert rows <= oracle._RUN_ROWS or ends.index(b) == ends.index(a) + 1


def test_monotonicity_keeps_a_certificate_that_fills_a_run_exactly(monkeypatch):
    # Runs of four moves at one sample per move. A run is checked only
    # when the next certificate would not fit in it, so at n = 3 the
    # certificates of 2 and 2 moves fill one run and share its calls.
    monkeypatch.setattr(oracle, "_RUN_ROWS", 4)
    sizes, calls = _spy_on_runs(monkeypatch)
    rep = verify_monotonicity(4, samples_per_move=1)
    assert rep.violations == ()
    runs, filled = [], 0
    certificates = iter(sizes)
    for n in range(1, 5):
        run = 0
        for moves in itertools.islice(certificates, 2**n):
            if run + moves > 4:
                runs.append(run)
                run = 0
            if run and run + moves == 4:
                filled += 1
            run += moves
        runs.append(run)
    assert filled > 0
    assert calls == [(r, r) for r in runs if r for _ in range(2)]


def test_monotonicity_memory_is_one_run():
    # a batch of a whole dimension (2,040 moves at n = 8) peaks at 6 MiB
    tracemalloc.start()
    try:
        verify_monotonicity(8, samples_per_move=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20
