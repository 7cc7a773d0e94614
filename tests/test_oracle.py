"""Sampling and brute-force corroboration routines."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from signschemes import (
    BoundViolationError,
    DomainError,
    ResourceLimitError,
    candidate_maximizers,
    check_factor_inequality,
    eval_q,
    grid_max,
    qmax_bound,
    report_to_json,
    verify_bound,
    verify_identities,
    verify_inequalities,
    verify_monotonicity,
)
from signschemes import Certificate, Move, evaluate, oracle


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (10, 32)])
def test_qmax_bound(n, expected):
    assert qmax_bound(n) == expected


def test_qmax_bound_rejects_zero():
    with pytest.raises(DomainError):
        qmax_bound(0)


def test_candidate_maximizers_odd():
    assert candidate_maximizers(1) == ((-1,),)
    assert candidate_maximizers(3) == ((-1, 0, -1),)
    assert candidate_maximizers(5) == ((-1, 0, -1, 0, -1),)


def test_candidate_maximizers_even():
    assert candidate_maximizers(2) == ((0, -1), (-1, 0))
    assert candidate_maximizers(4) == (
        (0, -1, 0, -1),
        (-1, 0, 0, -1),
        (-1, 0, -1, 0),
    )


def test_candidates_attain_bound_exactly():
    for n in range(1, 9):
        for cand in candidate_maximizers(n):
            assert eval_q(cand, exact=True) == qmax_bound(n)


def test_verify_bound_small_dims():
    rep = verify_bound(1, budget=2_000, seed=0)
    assert rep.best_value == 2.0
    assert rep.bound == 2
    assert rep.within_bound and rep.attained
    assert rep.method == "vertex-enum"
    assert rep.evaluations > 2_000
    rep = verify_bound(2, budget=2_000, seed=0)
    assert rep.best_value == 2.0


def test_verify_bound_rejects_negative_budget():
    for budget in (-5, 1.5, True, "10"):
        with pytest.raises(DomainError):
            verify_bound(2, budget=budget)


def test_dimension_arguments_must_be_positive_integers():
    for n in (2.5, True, 0, -1, "3"):
        for call in (
            lambda: verify_bound(n, budget=10),
            lambda: verify_identities(n),
            lambda: verify_monotonicity(n),
            lambda: grid_max(n, 0.5),
            lambda: qmax_bound(n),
            lambda: candidate_maximizers(n),
        ):
            with pytest.raises(DomainError):
                call()
    assert qmax_bound(np.int64(3)) == 4


def test_sample_counts_must_be_nonnegative_integers():
    for samples in (-1, 1.5, True):
        with pytest.raises(DomainError):
            verify_inequalities(samples=samples)
        with pytest.raises(DomainError):
            verify_monotonicity(2, samples_per_move=samples)


def test_seed_must_be_a_nonnegative_integer():
    for seed in (-1, 1.5, True):
        for call in (
            lambda: verify_bound(2, budget=10, seed=seed),
            lambda: verify_identities(2, seed=seed),
            lambda: verify_inequalities(10, seed=seed),
            lambda: verify_monotonicity(2, samples_per_move=1, seed=seed),
        ):
            with pytest.raises(DomainError, match="seed"):
                call()


def _nan_batch(X):
    return np.full(np.shape(X)[0], np.nan)


def test_verify_bound_flags_nan_evaluator(monkeypatch):
    monkeypatch.setattr(oracle, "eval_q_batch", _nan_batch)
    with pytest.raises(BoundViolationError, match=r"random point \(-?0\.") as exc:
        verify_bound(3, budget=1000)
    assert "np.float64" not in str(exc.value)
    # the ascent evaluates its own factor squares; with no random budget
    # its checks must catch a NaN there
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_square_product", lambda F, out: _nan_batch(out))
    with pytest.raises(BoundViolationError, match=r"ascent point \(-?0\.") as exc:
        verify_bound(3, budget=0)
    assert "np.float64" not in str(exc.value)


def _each_grid_block(monkeypatch, each):
    """Pass every grid block's (X, vals) through each on its way to the sweep."""
    blocks = oracle._grid_blocks
    monkeypatch.setattr(
        oracle, "_grid_blocks", lambda n, m: (each(*b) for b in blocks(n, m))
    )


def test_grid_max_flags_nan_evaluator(monkeypatch):
    _each_grid_block(monkeypatch, lambda X, vals: (X, _nan_batch(X)))
    with pytest.raises(BoundViolationError, match=r"grid point \(-1\.0, ") as exc:
        grid_max(3, 0.5)
    assert "np.float64" not in str(exc.value)


def test_monotonicity_flags_nan_evaluator(monkeypatch):
    clean = verify_monotonicity(2, samples_per_move=5)
    assert clean.violations == ()
    monkeypatch.setattr(oracle, "eval_f_batch", lambda scheme, Z: _nan_batch(Z))
    rep = verify_monotonicity(2, samples_per_move=5)
    assert len(rep.violations) == 5 * clean.moves_checked
    assert all(" at z=(0." in v for v in rep.violations)
    assert not any("np.float64" in v for v in rep.violations)


def test_tolerance_patched_violations_print_plain_floats(monkeypatch):
    # tolerances below every gap turn each sampled point into a violation
    monkeypatch.setattr(oracle, "FACTOR_TOL", -10.0)
    monkeypatch.setattr(oracle, "PRODUCT_TOL", -10.0)
    ineq = verify_inequalities(5, seed=1).violations
    mono = verify_monotonicity(2, samples_per_move=2, seed=1).violations
    assert sum(v.startswith("pair_one fails at (0.") for v in ineq) == 5
    assert sum(" at z=(0." in v for v in mono) > 0
    assert not any("np.float64" in v for v in ineq + mono)


def test_perturbed_catalogue_fails_in_both_readers(monkeypatch):
    # quad_one with 1+xyz for 1-xyz: 0.7 * 1.3^3 > 1 at (1, 0.3, 1)
    def quad_one_mutant(x, y, z):
        return (1 - y) * (1 + x * y) * (1 + y * z) * (1 + x * y * z), 1

    assert verify_inequalities(1_000, seed=0).violations == ()
    monkeypatch.setitem(evaluate.INEQUALITY_SIDES, "quad_one", quad_one_mutant)
    res = check_factor_inequality("quad_one", 1, Fraction(3, 10), 1)
    assert res.lhs == Fraction(15_379, 10_000) and not res.holds
    rep = verify_inequalities(1_000, seed=0)
    assert any(v.startswith("quad_one fails at (") for v in rep.violations)
    assert not any(v.startswith(("pair", "quad_swap")) for v in rep.violations)


def test_nan_quad_swap_residual_is_a_violation(monkeypatch):
    # NaN fails every comparison, so a residual test written as > passes it
    monkeypatch.setattr(oracle, "quad_swap_residual", lambda x, y, z: x * np.nan)
    rep = verify_inequalities(1_000, seed=0)
    assert np.isnan(rep.max_residual)
    assert rep.violations == ("quad_swap gap factorization off by nan",)


def test_nan_inequality_side_is_a_violation(monkeypatch):
    # NaN fails every comparison, so a side test written as > passes it
    def pair_one_nan(x, y, z):
        return x * np.nan, 1

    monkeypatch.setitem(evaluate.INEQUALITY_SIDES, "pair_one", pair_one_nan)
    rep = verify_inequalities(1_000, seed=0)
    sampled = [v for v in rep.violations if v.startswith("pair_one fails at (0.")]
    corners = [v for v in rep.violations if v.startswith("pair_one fails at corner")]
    assert len(sampled) == 10 and all(v.endswith(": nan > 1.0") for v in sampled)
    assert len(corners) == 8 and len(rep.violations) == 18


def test_verify_bound_is_deterministic():
    a = verify_bound(3, budget=5_000, seed=11)
    b = verify_bound(3, budget=5_000, seed=11)
    assert a == b


def test_verify_bound_raises_on_broken_evaluator(monkeypatch):
    monkeypatch.setattr(oracle, "eval_q", lambda x, exact=False: 0)
    with pytest.raises(BoundViolationError):
        verify_bound(2, budget=10, seed=0)


@pytest.mark.parametrize(
    "n,step,point",
    [
        (1, 0.01, (-1.0,)),
        (2, 0.5, (-1.0, 0.0)),
        (3, 0.25, (-1.0, 0.0, -1.0)),
    ],
)
def test_grid_max_attains_bound(n, step, point):
    rep = grid_max(n, step)
    assert rep.best_value == float(qmax_bound(n))
    assert rep.best_point == point
    assert rep.attained and rep.within_bound
    assert rep.method == "grid"
    assert rep.findings == ()
    assert rep.evaluations == (2 * round(1 / step) + 1) ** n


def test_grid_max_cuts_a_long_coordinate_into_batches(monkeypatch):
    # step 1e-6 gives 2,000,001 points on one coordinate: 245 blocks of
    # at most CHUNK points, not one evaluation per point
    sizes = []

    def counting(X, vals):
        sizes.append(len(X))
        assert len(sizes) <= 245, "more blocks than 2,000,001 / CHUNK"
        return X, vals

    _each_grid_block(monkeypatch, counting)
    rep = grid_max(1, 1e-6)
    assert len(sizes) == 245
    assert max(sizes) == oracle.CHUNK and sum(sizes) == 2_000_001
    monkeypatch.setattr(oracle, "CHUNK", 2_000_001)
    sizes.clear()
    assert grid_max(1, 1e-6) == rep
    assert sizes == [2_000_001]


def test_grid_max_validates_step():
    with pytest.raises(DomainError):
        grid_max(2, 0.3)
    with pytest.raises(DomainError):
        grid_max(2, 0.0)
    with pytest.raises(DomainError):
        grid_max(2, -0.5)


def test_grid_max_refuses_a_step_above_one_before_dividing():
    # 1.0 / 10**400 raised a bare OverflowError
    for step in (10**400, 2, 1.5):
        with pytest.raises(DomainError, match="does not divide 1 evenly"):
            grid_max(2, step)


def test_grid_max_rejects_nan_step():
    with pytest.raises(DomainError):
        grid_max(2, float("nan"))


def test_grid_max_rejects_non_number_step():
    for step in ("0.5", None, 0.5j):
        with pytest.raises(DomainError, match="step must be positive"):
            grid_max(2, step)


def test_grid_max_refuses_a_step_whose_inverse_overflows():
    # 1 / step is a float infinity here, and round() raised OverflowError
    for step in (5e-324, 1e-310):
        with pytest.raises(ResourceLimitError, match="cap is 40000000"):
            grid_max(1, step)


def test_grid_max_cost_guards():
    with pytest.raises(ResourceLimitError):
        grid_max(7, 0.1)
    with pytest.raises(ResourceLimitError):
        grid_max(6, 0.05)
    # coarse steps are allowed above six dimensions
    rep = grid_max(7, 1.0)
    assert rep.best_value == float(qmax_bound(7))


def test_grid_max_refuses_a_huge_dimension_before_the_power():
    # (2m + 1)^n has over 4,300 digits at n = 10^5, and at n = 10^400 it
    # cannot be computed: both are refused from n alone
    with pytest.raises(ResourceLimitError, match=r"3\^100000 points, cap is 40000000"):
        grid_max(10**5, 1.0)
    with pytest.raises(ResourceLimitError, match="cap is 40000000"):
        grid_max(10**400, 0.5)


def test_identities_exhaustive_counts():
    rep = verify_identities(5)
    assert rep.vectors_checked == 62
    assert rep.exhaustive
    assert rep.violations == ()
    assert rep.squares_checked == sum(
        2**n * _choose4(n) for n in range(1, 6)
    )


def _choose4(n):
    if n < 4:
        return 0
    return n * (n - 1) * (n - 2) * (n - 3) // 24


def test_identities_one_dim_vacuous():
    rep = verify_identities(1)
    assert rep.vectors_checked == 2
    assert rep.squares_checked == 0
    assert rep.parity_checked == 0
    assert rep.violations == ()


def test_identities_closed_form_n12():
    rep = verify_identities(12)
    assert rep.vectors_checked == 2**13 - 2 == 8_190
    assert rep.squares_checked == sum(2**n * _choose4(n) for n in range(1, 13))
    assert rep.exhaustive and rep.violations == ()


def _no_work(*args, **kwargs):
    raise AssertionError(f"work started: {args}")


def test_identities_refuse_over_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(oracle, "generate_scheme", _no_work)
    with pytest.raises(ResourceLimitError, match="cap"):
        verify_identities(60)


def test_identities_cap_counts_squares(monkeypatch):
    # n_max = 8 checks exactly this many squares; one more dimension is refused
    cap = sum(2**n * _choose4(n) for n in range(9))
    monkeypatch.setattr(oracle, "_SQUARE_CAP", cap)
    assert verify_identities(8).squares_checked == oracle._SQUARE_CAP
    monkeypatch.setattr(oracle, "generate_scheme", _no_work)
    with pytest.raises(ResourceLimitError):
        verify_identities(9)


def test_identities_refuse_a_huge_n_max_before_any_work(monkeypatch):
    # the square count stops at the first dimension over the cap, n = 22;
    # one term per dimension up to 10^400 would never end
    terms = []
    comb = math.comb

    def counting(n, k):
        terms.append(n)
        assert len(terms) <= 100, "a term per dimension up to n_max"
        return comb(n, k)

    monkeypatch.setattr(math, "comb", counting)
    monkeypatch.setattr(oracle, "generate_scheme", _no_work)
    monkeypatch.setattr(oracle, "_sign_tensor", _no_work)
    with pytest.raises(
        ResourceLimitError,
        match=rf"verify_identities\({10**400}\) would check at least 203327984 squares",
    ):
        verify_identities(10**400)
    assert terms == list(range(1, 23))


def test_identities_rejects_bad_n_max():
    with pytest.raises(DomainError):
        verify_identities(0)


def test_inequalities_clean_run():
    rep = verify_inequalities(2_000, seed=3)
    assert rep.violations == ()
    assert rep.max_residual <= 1e-12
    assert rep.corner_checks == 32
    assert rep.checked == 8_000


def test_monotonicity_clean_run():
    rep = verify_monotonicity(3, samples_per_move=20, seed=2)
    assert rep.violations == ()
    assert rep.certificates == 14
    assert rep.moves_checked > 0


def _corrupt_n3_certificates(monkeypatch):
    # each n = 3 certificate with moves repeats its first move, which no
    # longer finds its pattern; the empty one gets a move off the triangle
    build = oracle.build_certificate

    def corrupt(eps):
        cert = build(eps)
        if len(eps) != 3:
            return cert
        moves = cert.moves[:1] + cert.moves if cert.moves else (Move.point(4, 4),)
        return Certificate(eps, moves)

    monkeypatch.setattr(oracle, "build_certificate", corrupt)


def test_monotonicity_reports_a_move_that_cannot_be_applied(monkeypatch):
    clean = verify_monotonicity(2, samples_per_move=5)
    _corrupt_n3_certificates(monkeypatch)
    rep = verify_monotonicity(3, samples_per_move=5)
    assert rep.certificates == 14
    # the first move of seven certificates replays, nothing else at n = 3
    assert rep.moves_checked == clean.moves_checked + 7
    assert len(rep.violations) == 8
    assert "certificate for (1, 1, 1): Point(1;1) requires '+' at (1, 1), found '-'" in (
        rep.violations
    )
    assert (
        "certificate for (-1, -1, -1): position (4, 4) outside triangle of size 3"
        in rep.violations
    )
    assert not any("does not reach the target" in v for v in rep.violations)


def test_monotonicity_guard(monkeypatch):
    monkeypatch.setattr(oracle, "build_certificate", _no_work)
    with pytest.raises(ResourceLimitError, match="n_max=9, cap is 8"):
        verify_monotonicity(oracle.MONOTONICITY_N_MAX + 1)


# One call per sampled suite, taking its sample count k; at the paired k
# each draws exactly 120 floats into one array.
SAMPLED = {
    "inequalities": (lambda k: verify_inequalities(k), 40),
    "monotonicity": (lambda k: verify_monotonicity(2, samples_per_move=k), 60),
    "bound": (lambda k: verify_bound(2, budget=k), 60),
}


def _guard_sampling(monkeypatch):
    for name in ("_rng", "eval_q", "eval_q_batch", "build_certificate"):
        monkeypatch.setattr(oracle, name, _no_work)


@pytest.mark.parametrize("suite", sorted(SAMPLED))
def test_sampled_suites_refuse_over_cap_before_any_work(monkeypatch, suite):
    call, at_cap = SAMPLED[suite]
    _guard_sampling(monkeypatch)
    monkeypatch.setattr(oracle, "_FLOAT_CAP", 120)
    with pytest.raises(AssertionError, match="work started"):
        call(at_cap)
    with pytest.raises(ResourceLimitError, match="would draw .* floats, cap is 120"):
        call(at_cap + 1)


def test_verify_bound_refuses_before_computing_its_bound(monkeypatch):
    # 2^floor((n + 1)/2) at n = 10^12 would take minutes and gigabytes
    monkeypatch.setattr(oracle, "qmax_bound", _no_work)
    with pytest.raises(ResourceLimitError, match="verify_bound would draw"):
        verify_bound(10**12, 10)


def test_sampled_suites_refuse_huge_counts_before_any_work(monkeypatch):
    # each of these would allocate 200 MB or far more if it started
    _guard_sampling(monkeypatch)
    for call in (
        lambda: verify_inequalities(10**9),
        lambda: verify_monotonicity(8, samples_per_move=10**9),
        lambda: verify_bound(3, budget=10**12),  # ascent starts ~ budget / 120
        lambda: verify_bound(100, budget=250_000),  # n * min(budget, _BATCH) floats
        lambda: verify_bound(10**4, budget=0),  # one start's n x n factor square
    ):
        with pytest.raises(ResourceLimitError, match="cap is"):
            call()


def test_verify_bound_refuses_a_long_ascent_before_any_work(monkeypatch):
    # one start of 150 floats is under every float rule, but its ascent
    # takes 6,000 steps of up to 150 column products each
    _guard_sampling(monkeypatch)
    with pytest.raises(
        ResourceLimitError,
        match="verify_bound's ascent would take 6000 steps of 150 column products, "
        "cap is 100000",
    ):
        verify_bound(150, 0)
    # 2 * 20 * 50 * 50 steps times columns is the cap itself
    with pytest.raises(AssertionError, match="work started"):
        verify_bound(50, 0)
    with pytest.raises(ResourceLimitError, match="cap is 100000"):
        verify_bound(51, 0)


HUGE = 10**5000  # over the 4,300 digits str() prints by default


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: grid_max(HUGE, 1.0), id="grid"),
        pytest.param(lambda: verify_identities(HUGE), id="identities"),
        pytest.param(lambda: verify_bound(HUGE, 10), id="bound"),
        pytest.param(lambda: verify_inequalities(HUGE), id="inequalities"),
        pytest.param(lambda: verify_monotonicity(HUGE), id="monotonicity"),
    ],
)
def test_a_huge_size_is_refused_not_printed(monkeypatch, call):
    for name in ("_rng", "generate_scheme", "qmax_bound", "_grid_blocks"):
        monkeypatch.setattr(oracle, name, _no_work)
    with pytest.raises(ResourceLimitError, match=r"\[\d{5}-bit integer\].*cap is"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: verify_inequalities(500_000),
        lambda: verify_monotonicity(oracle.MONOTONICITY_N_MAX, samples_per_move=5_000),
        lambda: verify_bound(12, budget=500_000),
        lambda: verify_bound(40, budget=500_000),
    ],
)
def test_sample_caps_admit_counts_in_use(monkeypatch, call):
    # --samples 500000 (the sample workload) gives these counts, and runs
    # the bound suite up to --n-max 40; the tests and scripts use 100,000
    # samples at most
    _guard_sampling(monkeypatch)
    with pytest.raises(AssertionError, match="work started"):
        call()


def test_report_json_roundtrip():
    rep = verify_identities(3)
    obj = json.loads(report_to_json(rep))
    assert obj["n_max"] == 3
    assert obj["vectors_checked"] == rep.vectors_checked
    assert obj["violations"] == []
    rep = grid_max(2, 0.5)
    obj = json.loads(report_to_json(rep))
    assert obj["best_point"] == [-1.0, 0.0]
    assert obj["method"] == "grid"
