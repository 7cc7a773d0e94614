"""The certificate builder against a straightforward reference builder.

_reference_build is the original linear-scan builder: it multiplies out
each column and its sums below every row on its own, scans every row of
the column, scans the whole move list for the move to widen when V < 0,
and finds each pairing partner by scanning down the column. The
package's builder reads prefix lists, visits only the rows that start
out wrong and keeps per-row stacks instead; both must emit the same
certificates and the same traces.
"""

import json
import random

import pytest

from signschemes import (
    MINUS,
    PLUS,
    AlgorithmInvariantError,
    Certificate,
    Move,
    all_sign_vectors,
    build_certificate,
    certificate_to_json,
    reference_sign,
    trace_build,
    trace_to_obj,
)
from signschemes.moves import POINT, VERTICAL
from signschemes.normalize import (
    OP_LEVEL,
    OP_POINT,
    OP_SUBSTITUTE,
    OP_VERTICAL,
    TraceStep,
)


def _column(eps, k):
    """Column k of the generated scheme: entry i is eps[i]*...*eps[k]."""
    col = [0] * k
    prod = 1
    for i in range(k, 0, -1):
        prod *= eps[i - 1]
        col[i - 1] = prod
    return col


def _reference_build(eps, steps):
    n = len(eps)
    moves = []

    def emit(level, op, action, flipped, work):
        if steps is not None:
            at = tuple(moves) if op == OP_LEVEL else ()
            steps.append(TraceStep(level, op, action, tuple(flipped), tuple(work), at))

    for k in range(1, n + 1):
        col = _column(eps, k)
        suffix = [0] * (k + 2)
        for i in range(k, 0, -1):
            suffix[i] = suffix[i + 1] + col[i - 1]
        work = col[:]

        for i in range(k, 0, -1):
            if work[i - 1] != MINUS or reference_sign(i, k) == MINUS:
                continue
            below = suffix[i + 1]
            if below > 0:
                i2 = next(
                    (
                        v
                        for v in range(i + 1, k + 1)
                        if work[v - 1] == PLUS and reference_sign(v, k) == MINUS
                    ),
                    None,
                )
                if i2 is None:
                    raise AlgorithmInvariantError("no pairing partner")
                mv = Move.vertical(i, i2, k)
                moves.append(mv)
                work[i - 1] = -work[i - 1]
                work[i2 - 1] = -work[i2 - 1]
                emit(k, OP_VERTICAL, f"add {mv}", ((i, k), (i2, k)), work)
            elif below < 0:
                best = None
                for idx, m in enumerate(moves):
                    if m.j >= k:
                        continue
                    if (m.kind == POINT and m.i == i) or (
                        m.kind == VERTICAL and m.i2 == i
                    ):
                        if best is None or m.j > moves[best].j:
                            best = idx
                if best is None:
                    raise AlgorithmInvariantError("no move to widen")
                old = moves[best]
                if old.kind == POINT:
                    new = Move.horizontal(i, old.j, k)
                    moves[best] = new
                    work[i - 1] = -work[i - 1]
                    flipped = ((i, k),)
                else:
                    top = old.i
                    if work[top - 1] != PLUS or reference_sign(top, k) != MINUS:
                        raise AlgorithmInvariantError("fourth corner missing")
                    new = Move.square(top, i, old.j, k)
                    moves[best] = new
                    work[i - 1] = -work[i - 1]
                    work[top - 1] = -work[top - 1]
                    flipped = ((i, k), (top, k))
                emit(k, OP_SUBSTITUTE, f"replace {old} with {new}", flipped, work)
            else:
                raise AlgorithmInvariantError("V = 0")

        for i in range(1, k + 1):
            if work[i - 1] == PLUS and reference_sign(i, k) == MINUS:
                mv = Move.point(i, k)
                moves.append(mv)
                work[i - 1] = -work[i - 1]
                emit(k, OP_POINT, f"add {mv}", ((i, k),), work)

        for i in range(1, k + 1):
            if work[i - 1] != reference_sign(i, k):
                raise AlgorithmInvariantError("column not repaired")
        emit(k, OP_LEVEL, f"column {k} complete", (), work)

    return moves


def _reference_certificate(eps):
    return Certificate(eps, tuple(_reference_build(eps, None)))


def _reference_trace(eps):
    steps = []
    _reference_build(eps, steps)
    return tuple(steps)


def _reference_trace_json(eps, steps):
    # the trace JSON format, written out here rather than by trace_to_obj
    obj = {
        "eps": list(eps),
        "steps": [
            {
                "level": s.level,
                "op": s.op,
                "action": s.action,
                "flipped": [list(p) for p in s.flipped],
                "column": list(s.column),
                "moves": [m.to_obj() for m in s.moves],
            }
            for s in steps
        ],
    }
    return json.dumps(obj, separators=(",", ":"))


def _trace_json(eps):
    return json.dumps(trace_to_obj(eps), separators=(",", ":"))


def _random_vectors(n, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.choice((PLUS, MINUS)) for _ in range(n)) for _ in range(count)]


def test_matches_reference_for_every_vector_up_to_twelve():
    # The trace JSON is compared with the reference steps' JSON up to
    # n=8, where it is cheap.
    checked = 0
    for n in range(1, 13):
        for eps in all_sign_vectors(n):
            steps = trace_build(eps)
            ref_steps = _reference_trace(eps)
            assert steps == ref_steps, eps
            if n <= 8:
                assert _trace_json(eps) == _reference_trace_json(eps, ref_steps)
            assert certificate_to_json(build_certificate(eps)) == certificate_to_json(
                Certificate(eps, ref_steps[-1].moves)
            ), eps
            checked += 1
    assert checked == 8190


@pytest.mark.parametrize("n,count", [(64, 6), (128, 3), (200, 2)])
def test_certificates_match_reference_on_random_vectors(n, count):
    for eps in _random_vectors(n, count, seed=n):
        assert certificate_to_json(build_certificate(eps)) == certificate_to_json(
            _reference_certificate(eps)
        ), eps


def test_certificates_match_reference_on_mid_size_vectors():
    # sizes between the exhaustive sweep (n <= 12) and the n = 64 samples
    rng = random.Random(1340)
    for _ in range(200):
        n = rng.randint(13, 40)
        eps = tuple(rng.choice((PLUS, MINUS)) for _ in range(n))
        assert certificate_to_json(build_certificate(eps)) == certificate_to_json(
            _reference_certificate(eps)
        ), eps


def test_traces_match_reference_on_random_vectors():
    for eps in _random_vectors(64, 3, seed=640):
        ref_steps = _reference_trace(eps)
        assert trace_build(eps) == ref_steps, eps
        assert _trace_json(eps) == _reference_trace_json(eps, ref_steps), eps
    # at n=128 the steps alone are compared, without the serialization
    (eps,) = _random_vectors(128, 1, seed=1280)
    assert trace_build(eps) == _reference_trace(eps)
