"""The identity sweep against the per-vector loop it replaces.

The reference function below is verify_identities as first written: one
generated scheme per sign vector, checked with the scalar square, sum
and count helpers. The package checks the identities on blocks of sign
tensors; both must give the same report, violation messages included,
for the same arguments.
"""

import itertools

import numpy as np
import pytest

from signschemes import (
    IdentityReport,
    all_sign_vectors,
    generate_scheme,
    horizontal_sum,
    square_sign_product,
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
