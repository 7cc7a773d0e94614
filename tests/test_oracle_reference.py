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
and evaluation counts included.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from signschemes import (
    IdentityReport,
    MaxReport,
    all_sign_vectors,
    candidate_maximizers,
    eval_q,
    eval_q_batch,
    generate_scheme,
    grid_max,
    horizontal_sum,
    qmax_bound,
    square_sign_product,
    verify_bound,
    verify_identities,
    vertical_sum,
    wrong_counts,
)
from signschemes import oracle
from signschemes.schemes import MINUS, PLUS


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
    monkeypatch.setattr(oracle, "_BATCH", 25)
    rep = grid_max(6, 0.5)
    assert len(rep.findings) == 4
    assert rep == _reference_grid_max(6, 0.5)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("budget", [0, 1, oracle._BATCH, oracle._BATCH + 1])
def test_verify_bound_matches_reference(n, budget):
    assert verify_bound(n, budget, seed=5) == _reference_verify_bound(n, budget, seed=5)


def test_grid_memory_is_one_block():
    # The whole grid is 9^7 points; one block is 9^5 points of 7 floats.
    tracemalloc.start()
    try:
        grid_max(7, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
