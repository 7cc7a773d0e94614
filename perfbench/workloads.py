"""The benchmark's three workloads.

Each workload turns a seed into a fixed set of inputs and runs them as
one *pass*. A run repeats the same pass, so per-pass counts and digests
must come out identical every time. Workloads reach the program only
through the public API and ``signschemes.cli.main``, and they look each
entry point up on its module at call time, so the tracer can wrap it.

Every pass checks its outputs against closed forms; a unit whose check
fails is counted as failed and a line saying why goes into ``problems``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from time import perf_counter

import signschemes as ss
from signschemes import cli

# certify-large: every n in N_LO..N_HI appears PER_N times, so the mix of
# sizes (and with it the pass cost) is the same for every seed; the seed
# draws the sign vectors and the order. 2 * 97 = 194 certificates per pass
# keeps at least ten latency samples above p90 within one pass.
CL_N_LO, CL_N_HI, CL_PER_N = 32, 128, 2

# exhaustive: the acceptance gate's sweep sizes.
EX_CERT_N_MAX = 12
EX_IDENTITIES_N_MAX = 10
EX_MONOTONICITY_N_MAX = 8
EX_SAMPLES_PER_MOVE = 10

# sample: two 250k-row random batches per dimension, plus a 9^7 grid.
SA_N_MAX = 12
SA_SAMPLES = 500_000
SA_GRID_N, SA_GRID_STEP = 7, 0.25


def _without_timing(obj):
    """Drop report fields that depend on timing (elapsed times, rates)."""
    if isinstance(obj, dict):
        return {
            k: _without_timing(v)
            for k, v in obj.items()
            if not (k.endswith("_s") or "elapsed" in k or "time" in k)
        }
    if isinstance(obj, list):
        return [_without_timing(v) for v in obj]
    return obj


def _report_obj(report) -> dict:
    return _without_timing(json.loads(ss.report_to_json(report)))


def _check_obj(report) -> list:
    return [
        report.accepted,
        report.source_matches,
        report.disjoint,
        report.preconditions_ok,
        report.final_is_reference,
        [list(p) for p in report.residual_wrong],
        list(report.failures),
    ]


@dataclasses.dataclass
class PassResult:
    """What one pass did: work, failures, latencies and output digests."""

    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0
    ref_s: float = 0.0  # mean reference() time, see refclock.py
    cert_ms: list = dataclasses.field(default_factory=list)
    problems: list = dataclasses.field(default_factory=list)
    cert_sha: object = dataclasses.field(default_factory=hashlib.sha256)
    report_sha: object = dataclasses.field(default_factory=hashlib.sha256)

    def fail(self, units: int, why: str) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(why)

    def add_report(self, obj) -> None:
        self.report_sha.update(json.dumps(obj, sort_keys=True).encode())
        self.report_sha.update(b"\n")


def _certify(eps, res: PassResult) -> int:
    """Build, serialize, parse and check one certificate as one unit.

    Returns the number of moves, or -1 if the unit failed.
    """
    res.attempted += 1
    t0 = perf_counter()
    try:
        cert = ss.build_certificate(eps)
        text = ss.certificate_to_json(cert)
        report = ss.check_certificate(eps, ss.certificate_from_json(text))
    except Exception as exc:  # a crash fails this unit, not the run
        res.busy_s += perf_counter() - t0
        res.fail(1, f"certificate for n={len(eps)}: {type(exc).__name__}: {exc}")
        return -1
    dt = perf_counter() - t0
    res.busy_s += dt
    res.cert_ms.append(dt * 1e3)
    res.cert_sha.update(text.encode())
    res.cert_sha.update(b"\n")
    res.add_report(_check_obj(report))
    if not report.accepted:
        res.fail(1, f"certificate for {eps} rejected: {report.failures[:1]}")
        return -1
    return len(cert.moves)


def _timed_call(res: PassResult, units: int, label: str, fn, *args, **kwargs):
    """Call fn as `units` units of work; None if it raised."""
    res.attempted += units
    t0 = perf_counter()
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a crash fails the call's units, not the run
        res.fail(units, f"{label}: {type(exc).__name__}: {exc}")
        return None
    finally:
        res.busy_s += perf_counter() - t0


class CertifyLarge:
    name = "certify-large"
    unit = "certificate"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        ns = [n for n in range(CL_N_LO, CL_N_HI + 1) for _ in range(CL_PER_N)]
        rng.shuffle(ns)
        self.vectors = []
        for n in ns:
            bits = rng.getrandbits(n)
            self.vectors.append(tuple(-1 if (bits >> b) & 1 else 1 for b in range(n)))
        self.units_per_pass = len(self.vectors)

    def sizes(self) -> str:
        total = sum(len(e) for e in self.vectors)
        return (
            f"{len(self.vectors)} random sign vectors, {CL_PER_N} per n for "
            f"n={CL_N_LO}..{CL_N_HI} in seeded order, {total} signs in all"
        )

    def warm_up(self) -> None:
        _certify((1, -1, -1, 1, -1), PassResult())

    def run_pass(self, mark) -> PassResult:
        res = PassResult()
        for idx, eps in enumerate(self.vectors):
            mark(idx)
            _certify(eps, res)
        return res


def _squares(n_max: int) -> int:
    return sum(2**n * math.comb(n, 4) for n in range(1, n_max + 1))


class Exhaustive:
    name = "exhaustive"
    unit = "sign vector"

    def __init__(self, seed: int):
        self.seed = seed
        self.vectors = [
            eps for n in range(1, EX_CERT_N_MAX + 1) for eps in ss.all_sign_vectors(n)
        ]
        self.identity_vectors = 2 ** (EX_IDENTITIES_N_MAX + 1) - 2
        self.monotonicity_vectors = 2 ** (EX_MONOTONICITY_N_MAX + 1) - 2
        self.units_per_pass = (
            len(self.vectors) + self.identity_vectors + self.monotonicity_vectors
        )

    def sizes(self) -> str:
        return (
            f"certify all {len(self.vectors)} vectors with n<={EX_CERT_N_MAX}; "
            f"verify_identities({EX_IDENTITIES_N_MAX}) over "
            f"{self.identity_vectors} vectors; "
            f"verify_monotonicity({EX_MONOTONICITY_N_MAX}, "
            f"samples_per_move={EX_SAMPLES_PER_MOVE}) over "
            f"{self.monotonicity_vectors} vectors"
        )

    def warm_up(self) -> None:
        _certify((1, -1, -1, 1, -1), PassResult())
        ss.verify_identities(4, seed=self.seed)
        ss.verify_monotonicity(3, samples_per_move=EX_SAMPLES_PER_MOVE, seed=self.seed)

    def run_pass(self, mark) -> PassResult:
        res = PassResult()
        small_moves = 0
        for idx, eps in enumerate(self.vectors):
            mark(idx)
            moves = _certify(eps, res)
            if len(eps) <= EX_MONOTONICITY_N_MAX and moves >= 0:
                small_moves += moves

        mark(len(self.vectors))
        rep = _timed_call(
            res, self.identity_vectors, "verify_identities",
            ss.verify_identities, EX_IDENTITIES_N_MAX, seed=self.seed,
        )
        if rep is not None:
            res.add_report(_report_obj(rep))
            want = (self.identity_vectors, _squares(EX_IDENTITIES_N_MAX))
            got = (rep.vectors_checked, rep.squares_checked)
            if got != want or rep.violations:
                res.fail(
                    self.identity_vectors,
                    f"verify_identities: vectors/squares {got}, expected {want}; "
                    f"{len(rep.violations)} violation(s)",
                )

        mark(len(self.vectors) + 1)
        rep = _timed_call(
            res, self.monotonicity_vectors, "verify_monotonicity",
            ss.verify_monotonicity, EX_MONOTONICITY_N_MAX,
            samples_per_move=EX_SAMPLES_PER_MOVE, seed=self.seed,
        )
        if rep is not None:
            res.add_report(_report_obj(rep))
            # moves_checked must match the moves of the certificates built
            # above for the same vectors
            want = (self.monotonicity_vectors, small_moves)
            got = (rep.certificates, rep.moves_checked)
            if got != want or rep.violations:
                res.fail(
                    self.monotonicity_vectors,
                    f"verify_monotonicity: certificates/moves {got}, expected "
                    f"{want}; {len(rep.violations)} violation(s)",
                )
        return res


def _bound_evaluations(n: int, budget: int) -> int:
    """verify_bound's evaluation count: candidates + budget + starts*(1 + 40n)."""
    candidates = 1 if n % 2 else n // 2 + 1
    starts = max(1, budget // (40 * n))
    return candidates + budget + starts * (1 + 40 * n)


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Sample:
    name = "sample"
    unit = "evaluation"

    def __init__(self, seed: int):
        self.seed = seed
        self.argv = [
            "verify", "--suite", "bound", "--n-max", str(SA_N_MAX),
            "--samples", str(SA_SAMPLES), "--seed", str(seed), "--json",
        ]
        self.bound_evals = [_bound_evaluations(n, SA_SAMPLES) for n in range(1, SA_N_MAX + 1)]
        self.grid_evals = (2 * round(1 / SA_GRID_STEP) + 1) ** SA_GRID_N
        self.units_per_pass = sum(self.bound_evals) + self.grid_evals

    def sizes(self) -> str:
        return (
            f"signschemes {' '.join(self.argv)} ({sum(self.bound_evals)} "
            f"evaluations); grid_max({SA_GRID_N}, {SA_GRID_STEP}) "
            f"({self.grid_evals} evaluations)"
        )

    def warm_up(self) -> None:
        _run_cli(["verify", "--suite", "bound", "--n-max", "2", "--samples", "1000",
                  "--seed", str(self.seed), "--json"])
        ss.grid_max(2, 0.5)

    def run_pass(self, mark) -> PassResult:
        res = PassResult()
        mark(0)
        out = _timed_call(res, sum(self.bound_evals), "cli verify", _run_cli, self.argv)
        if out is not None:
            self._check_bound(res, *out)

        mark(1)
        rep = _timed_call(
            res, self.grid_evals, "grid_max", ss.grid_max, SA_GRID_N, SA_GRID_STEP
        )
        if rep is not None:
            res.add_report(_report_obj(rep))
            if rep.evaluations != self.grid_evals or not (rep.within_bound and rep.attained):
                res.fail(
                    self.grid_evals,
                    f"grid_max: evaluations={rep.evaluations} "
                    f"within_bound={rep.within_bound} attained={rep.attained}",
                )
        return res

    def _check_bound(self, res: PassResult, rc: int, stdout: str, stderr: str) -> None:
        if rc != 0:
            res.fail(sum(self.bound_evals), f"cli verify exit {rc}: {stderr.strip()}")
            return
        try:
            obj = _without_timing(json.loads(stdout))
        except ValueError as exc:
            res.fail(sum(self.bound_evals), f"cli verify printed bad JSON: {exc}")
            return
        res.add_report(obj)
        reports = obj.get("reports", [])
        if obj.get("violations") != 0 or len(reports) != SA_N_MAX:
            res.fail(
                sum(self.bound_evals),
                f"cli verify: {obj.get('violations')} violation(s), "
                f"{len(reports)} report(s)",
            )
            return
        for n, (rep, want) in enumerate(zip(reports, self.bound_evals), start=1):
            ok = (
                rep.get("suite") == f"bound n={n}"
                and rep.get("evaluations") == want
                and rep.get("within_bound") is True
                and rep.get("best_value", math.inf) <= rep.get("bound", 0) + ss.PRODUCT_TOL
            )
            if not ok:
                res.fail(
                    want,
                    f"bound n={n}: evaluations={rep.get('evaluations')} (expected "
                    f"{want}), best={rep.get('best_value')} bound={rep.get('bound')}",
                )


WORKLOADS = {w.name: w for w in (CertifyLarge, Exhaustive, Sample)}
