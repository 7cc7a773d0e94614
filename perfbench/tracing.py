"""Spans around the program's layers, recorded from outside the package.

The tracer replaces public functions at the names their callers bind
(``signschemes.oracle.eval_q_batch``, ``signschemes.cli.verify_bound``,
...) with wrappers that record one span per call: name, start, end,
parent span and the benchmark's unit id. Spans stay in memory until the
run writes them out. Counts (moves, rows, evaluations, ...) are taken
from the same calls' arguments and results, outside the span's interval.

Nothing here is active unless ``install`` was called; ``uninstall``
puts every original function back.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import signschemes as ss
import signschemes.cli
import signschemes.normalize
import signschemes.oracle


def _count_moves(counts, args, cert):
    counts["normalize.build_certificate.moves"] += len(cert.moves)
    counts["normalize.build_certificate.widenings"] += sum(
        m.kind in ("H", "S") for m in cert.moves
    )


def _count_accepted(counts, args, report):
    counts["normalize.check_certificate.accepted"] += report.accepted


def _count_json(counts, args, text):
    counts["moves.json_bytes"] += len(text.encode("utf-8"))


def _count_f_rows(counts, args, values):
    counts["evaluate.eval_f_batch.rows"] += np.shape(args[1])[0]


def _count_q_rows(counts, args, values):
    m, n = np.shape(args[0])
    counts["evaluate.eval_q_batch.rows"] += m
    counts["evaluate.eval_q_batch.mults"] += m * n * (n + 1)


def _counter(key, field):
    def count(counts, args, report):
        counts[key] += getattr(report, field)

    return count


COUNT_KEYS = (
    "normalize.build_certificate.moves",
    "normalize.build_certificate.widenings",
    "normalize.check_certificate.accepted",
    "moves.json_bytes",
    "evaluate.eval_f_batch.rows",
    "evaluate.eval_q_batch.rows",
    "evaluate.eval_q_batch.mults",
    "oracle.verify_identities.squares",
    "oracle.verify_monotonicity.moves_checked",
    "oracle.verify_bound.evaluations",
    "oracle.grid_max.evaluations",
)

# (module, attribute, span name, count hook). The same function is wrapped
# at every binding the benchmark or the package calls it through.
TARGETS = (
    (ss, "build_certificate", "normalize.build_certificate", _count_moves),
    (ss.oracle, "build_certificate", "normalize.build_certificate", _count_moves),
    (ss, "check_certificate", "normalize.check_certificate", _count_accepted),
    (ss, "certificate_to_json", "moves.certificate_to_json", _count_json),
    (ss, "certificate_from_json", "moves.certificate_from_json", None),
    (ss.oracle, "apply_move", "moves.apply_move", None),
    (ss.normalize, "generate_scheme", "schemes.generate_scheme", None),
    (ss.oracle, "generate_scheme", "schemes.generate_scheme", None),
    (ss.oracle, "eval_f_batch", "evaluate.eval_f_batch", _count_f_rows),
    (ss.oracle, "eval_q_batch", "evaluate.eval_q_batch", _count_q_rows),
    (ss.oracle, "eval_q", "evaluate.eval_q", None),
    (ss, "verify_identities", "oracle.verify_identities",
     _counter("oracle.verify_identities.squares", "squares_checked")),
    (ss, "verify_monotonicity", "oracle.verify_monotonicity",
     _counter("oracle.verify_monotonicity.moves_checked", "moves_checked")),
    (ss.cli, "verify_bound", "oracle.verify_bound",
     _counter("oracle.verify_bound.evaluations", "evaluations")),
    (ss, "grid_max", "oracle.grid_max",
     _counter("oracle.grid_max.evaluations", "evaluations")),
    (ss.cli, "main", "cli.main", None),
)


class Tracer:
    """Records the spans and counts of one pass."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, unit id)
        self.counts: Counter = Counter()
        self.unit = -1
        self._stack: list[int] = []
        self._saved: list = []

    def mark(self, unit: int) -> None:
        self.unit = unit

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, count in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def layer_totals(self) -> dict:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one name never nest, so busy time is the plain
        sum of durations.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent, unit) in enumerate(self.spans):
            t = totals[name]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child[idx]
        return totals


# The per-layer metrics of BENCHMARK.json: layer.function.field, where the
# field is calls, busy_s or self_s from the spans, or a count.
def layer_metrics(tracer: Tracer) -> dict:
    """Flat {metric name: value} for one traced pass; 0 for layers not called."""
    out = {key: 0 for key in COUNT_KEYS}
    for _, _, name, _ in TARGETS:
        out.update({f"{name}.calls": 0, f"{name}.busy_s": 0.0, f"{name}.self_s": 0.0})
    for name, fields in tracer.layer_totals().items():
        for field, value in fields.items():
            out[f"{name}.{field}"] = value
    out.update(tracer.counts)
    return out
