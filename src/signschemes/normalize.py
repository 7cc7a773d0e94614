"""Certificate construction: rewriting a generated scheme into the target.

The builder processes columns k = 1..n in order. Columns left of k are
already repaired, and the moves collected so far are reshaped to absorb
column k's wrong entries:

  * Scan column k bottom to top for wrong '-' entries (these sit at rows
    with i + k odd). For each, look at V = the sum of the signs below it
    in the ORIGINAL column. V is odd, so either:
      - V > 0: pair the entry with the nearest wrong '+' below it in the
        working column and add a Vertical move, or
      - V < 0: take the latest earlier move that ends at this row (a
        Point(i;j) or a Vertical(top,i;j) with j < k) and widen it in
        place into a Horizontal(i;j,k) or Square(top,i;j,k). A widened
        move also corrects the wrong '+' at (top,k), which the counting
        identities guarantee is present.
  * Finally add a Point move for every wrong '+' still left in the
    working column, top row first.

Every per-column quantity comes from lists that grow by one entry per
column, so the builder reads eps once, in order, and its state after
column k depends only on eps_1..eps_k. With pre the prefix products of
eps (pre[0] = 1), C[i,k] = pre[i-1]*pre[k]: column k is a slice of pre
or of -pre, and V below row i is pre[k] times a difference of prefix
sums of pre. (i,k) starts out wrong exactly when
(pre[i-1] == 1) ^ (i odd) equals (pre[k] == 1) ^ (k odd), so the scan
visits only the rows of that class. No lookup scans either: the nearest
unpaired wrong '+' below the scanned row is on top of a stack, and each
row keeps a stack of the moves ending at it, largest j on top; widening
pops the top, exposing the row's next target. A column costs one O(k)
slice and O(1) per wrong entry, the build O(n^2). Moves stay plain tuples
while later columns widen them; each final move becomes one validated Move.

Each flip turns a wrong entry into a correct one and no position is
touched twice, so the touched sets are disjoint and cover exactly the
wrong set. V == 0, a missing pairing partner, a missing widening target,
or a missing fourth corner would contradict the counting identities;
those paths raise AlgorithmInvariantError and are bug signals.

check_certificate shares no logic with the builder. It takes a
Certificate only (anything else raises DomainError), builds its own grid
from prefix slices and replays each move by kind: a Point reads one cell,
a Horizontal or Vertical two and a Square four, compared with the kind's
pattern in one test and, when they match, overwritten with the flipped
values. Only a move that fails its pattern walks its positions, in
moves.rows_mismatch, to name the first mismatch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cache
from itertools import groupby
from operator import attrgetter

from .errors import AlgorithmInvariantError, DimensionError, DomainError, printable
from .moves import (
    HORIZONTAL,
    POINT,
    SQUARE,
    VERTICAL,
    Certificate,
    Move,
    check_is_certificate,
    rows_mismatch,
)
from .schemes import (
    MINUS,
    PLUS,
    as_sign_vector,
    generate_scheme,
    sign_char,
)

OP_VERTICAL = "vertical"
OP_SUBSTITUTE = "substitute"
OP_POINT = "point"
OP_LEVEL = "level"


@dataclass(frozen=True)
class TraceStep:
    """One recorded builder event.

    op is one of the OP_* constants; flipped lists the column positions
    the event corrected (scanned row first); column is the working column
    after the event. moves is the move list after the event on OP_LEVEL
    steps and empty on every other step, which keeps a trace O(n^2).
    """

    level: int
    op: str
    action: str
    flipped: tuple[tuple[int, int], ...]
    column: tuple[int, ...]
    moves: tuple[Move, ...]


def _build(eps, steps: list[TraceStep] | None) -> list[Move]:
    # moves as plain (kind, i, j, i2, j2) tuples, made Moves once at the end
    moves: list[tuple] = []
    # These lists grow by one entry per column, reading eps once, in order.
    # ends[i]: indices into moves of the Point(i;j) and Vertical(.,i;j)
    # moves, in creation order, so the top has the largest j.
    # reference_sign(i, k) depends only on k - i: alt[d] = reference_sign(i, i + d).
    # C[i,k] = pre[i-1] * pre[k]; neg[i] = -pre[i]; acc[i] = pre[0] + ... +
    # pre[i-1]; rows[c]: the rows i with (pre[i-1] == 1) ^ (i odd) == c, ascending
    ends, alt, pre, neg, acc, rows = [[]], [], [1], [-1], [0], ([], [])
    if steps is not None:
        made = cache(lambda m: Move(*m))  # one Move per distinct trace move

    def emit(level, op, action, flipped, work):
        at = tuple(map(made, moves)) if op == OP_LEVEL else ()
        steps.append(TraceStep(level, op, action, tuple(flipped), tuple(work), at))

    for k, e in enumerate(eps, 1):
        rows[(pre[-1] == 1) ^ (k & 1)].append(k)
        acc.append(acc[-1] + pre[-1])
        pre.append(pre[-1] * e)
        neg.append(-pre[-1])
        ends.append([])
        alt.append(MINUS if k & 1 else PLUS)
        sign = pre[k]
        work = (pre if sign == 1 else neg)[:k]
        ref = alt[::-1]
        cls = rows[(sign == 1) ^ (k & 1)]  # the rows wrong at the start
        # wrong '+' rows below the scanned row, the nearest one on top
        wrong_plus: list[int] = []

        for i in reversed(cls):
            s = work[i - 1]
            if s == ref[i - 1]:
                # the top corner of an earlier Square widening
                continue
            if s == PLUS:
                wrong_plus.append(i)
                continue
            below = sign * (acc[k] - acc[i])
            if below > 0:
                if not wrong_plus:
                    raise AlgorithmInvariantError(
                        f"no wrong '+' below row {i} in column {k} despite V > 0"
                    )
                i2 = wrong_plus.pop()
                mv = (VERTICAL, i, k, i2, None)
                ends[i2].append(len(moves))
                moves.append(mv)
                work[i - 1] = PLUS
                work[i2 - 1] = MINUS
                if steps is not None:
                    emit(k, OP_VERTICAL, f"add {made(mv)}", ((i, k), (i2, k)), work)
            elif below < 0:
                if not ends[i]:
                    raise AlgorithmInvariantError(
                        f"no move to widen for row {i} in column {k} despite V < 0"
                    )
                best = ends[i].pop()
                old = moves[best]
                if old[0] == POINT:
                    new = (HORIZONTAL, i, old[2], None, k)
                    flipped = ((i, k),)
                else:
                    top = old[1]
                    if work[top - 1] != PLUS or ref[top - 1] != MINUS:
                        raise AlgorithmInvariantError(
                            f"fourth corner ({top}, {k}) is not a wrong '+' "
                            f"when widening {Move(*old)}"
                        )
                    new = (SQUARE, top, old[2], i, k)
                    work[top - 1] = MINUS
                    flipped = ((i, k), (top, k))
                moves[best] = new
                work[i - 1] = PLUS
                if steps is not None:
                    action = f"replace {made(old)} with {made(new)}"
                    emit(k, OP_SUBSTITUTE, action, flipped, work)
            else:
                raise AlgorithmInvariantError(
                    f"V = 0 at wrong '-' ({i}, {k}); the column sum must be odd"
                )

        for i in reversed(wrong_plus):
            mv = (POINT, i, k, None, None)
            ends[i].append(len(moves))
            moves.append(mv)
            work[i - 1] = MINUS
            if steps is not None:
                emit(k, OP_POINT, f"add {made(mv)}", ((i, k),), work)

        if work != ref:
            i = next(i for i in range(1, k + 1) if work[i - 1] != ref[i - 1])
            raise AlgorithmInvariantError(
                f"column {k} not repaired at row {i} after processing"
            )
        if steps is not None:
            emit(k, OP_LEVEL, f"column {k} complete", (), work)

    return [Move(*m) for m in moves]


def build_certificate(eps) -> Certificate:
    """Moves transforming the scheme generated by eps into the target.

    The order is deterministic: earlier-column moves keep their positions
    when widened in place, each column's Vertical moves follow in scan
    order (bottom to top), and its Point moves come last, top to bottom.
    Runs in O(n^2): columns and V-sums come from prefix lists, the
    widening target and the pairing partner come off per-row and
    per-column stacks (see the module docstring), and no trace text is
    formatted.
    """
    eps = as_sign_vector(eps)
    return Certificate(eps, tuple(_build(eps, None)))


def trace_build(eps) -> tuple[TraceStep, ...]:
    """Like build_certificate, but recording every builder event.

    Emits one step per corrective action plus one closing OP_LEVEL step
    per column, which alone carries the move list; the last step's move
    list is the full certificate.
    """
    steps: list[TraceStep] = []
    _build(as_sign_vector(eps), steps)
    return tuple(steps)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of replaying a certificate against a generated scheme."""

    eps: tuple[int, ...]
    accepted: bool = field(init=False)
    source_matches: bool
    disjoint: bool
    preconditions_ok: bool
    final_is_reference: bool
    residual_wrong: tuple[tuple[int, int], ...]
    failures: tuple[str, ...]

    def __post_init__(self):
        ok = self.source_matches and self.disjoint and self.preconditions_ok
        object.__setattr__(self, "accepted", ok and self.final_is_reference)

    @property
    def n(self) -> int:
        return len(self.eps)


def report_to_json(report) -> str:
    """JSON for a CheckReport or any oracle report dataclass, field order preserved."""
    if not is_dataclass(report) or isinstance(report, type):
        raise DomainError(f"expected a report dataclass, got {type(report).__name__}")
    return json.dumps(asdict(report), separators=(",", ":"))


def check_certificate(eps, cert: Certificate) -> CheckReport:
    """Replay cert from the scheme generated by eps and report the outcome.

    Checks that the certificate names the same sign vector, that no two
    moves touch the same position, that every move's sign pattern is
    present when the move is applied in sequence, and that the final
    scheme is the target. Moves are replayed by kind, reading and
    flipping their cells directly (see the module docstring). Nothing is
    raised for a bad certificate, but cert must be a Certificate (anything
    else raises DomainError), and a dimension mismatch between eps and
    cert raises DimensionError.
    """
    eps = as_sign_vector(eps)
    check_is_certificate(cert)
    n = len(eps)
    if cert.n != n:
        raise DimensionError(f"certificate is for n={cert.n}, input has n={n}")
    failures: list[str] = []
    source_matches = cert.eps == eps
    if not source_matches:
        failures.append("certificate sign vector differs from the input vector")

    # the generated scheme, grid[i-1][j-i] as in Scheme, from prefix
    # products: C[i,j] = eps[i]*...*eps[j] = pre[i-1]*pre[j], as pre is +-1,
    # so row i is a slice of pre or of its negation; each slice is a new
    # list, so flipping a cell of one row leaves every other row alone
    pre = [1]
    for e in eps:
        pre.append(pre[-1] * e)
    neg = [-p for p in pre]
    grid = [(pre if p == 1 else neg)[i:] for i, p in enumerate(pre[:-1], 1)]
    m = n + 1  # position (i, j) is keyed i*m + j in seen
    seen: set[int] = set()
    disjoint = True
    preconditions_ok = True
    for idx, move in enumerate(cert.moves):
        # a Move has 1 <= i <= j, i < i2 <= j and j < j2 for its kind, so
        # only a column can leave the triangle, and (i, j) comes first
        kind, i, j, i2, j2 = move
        if (j2 or j) > n:
            preconditions_ok = False
            outside = (printable(i), printable(j if j > n else j2))
            failures.append(f"move {idx} {move}: position {outside} outside triangle")
            continue
        row = grid[i - 1]
        a = j - i
        if kind == POINT:
            keys = (i * m + j,)
            ok = row[a] == PLUS
            if ok:
                row[a] = MINUS
        elif kind == HORIZONTAL:
            b = j2 - i
            keys = (i * m + j, i * m + j2)
            ok = row[a] == PLUS and row[b] == MINUS
            if ok:
                row[a] = MINUS
                row[b] = PLUS
        elif kind == VERTICAL:
            low, c = grid[i2 - 1], j - i2
            keys = (i * m + j, i2 * m + j)
            ok = row[a] == MINUS and low[c] == PLUS
            if ok:
                row[a] = PLUS
                low[c] = MINUS
        else:
            low, b, c, d = grid[i2 - 1], j2 - i, j - i2, j2 - i2
            keys = (i * m + j, i * m + j2, i2 * m + j, i2 * m + j2)
            ok = (
                row[a] == MINUS and row[b] == PLUS
                and low[c] == PLUS and low[d] == MINUS
            )
            if ok:
                row[a] = PLUS
                row[b] = MINUS
                low[c] = MINUS
                low[d] = PLUS
        if not seen.isdisjoint(keys):
            disjoint = False
            pos = next(p for p in move.touched_positions() if p[0] * m + p[1] in seen)
            failures.append(f"move {idx} {move}: position {pos} already touched")
        seen.update(keys)
        if not ok:
            preconditions_ok = False
            pos, req, found = rows_mismatch(grid, move)
            failures.append(
                f"move {idx} {move}: needs '{sign_char(req)}' at {pos}, "
                f"found '{sign_char(found)}'"
            )

    # row i of the target is a prefix of row 1, which alternates from '-';
    # scan only rows that differ
    top = [MINUS, PLUS] * (n // 2) + [MINUS] * (n & 1)
    residual = tuple(
        (i, j)
        for i, row in enumerate(grid, 1)
        if row != top[: n - i + 1]
        for j, s in enumerate(row, i)
        if s != top[j - i]
    )
    return CheckReport(
        eps=eps,
        source_matches=source_matches,
        disjoint=disjoint,
        preconditions_ok=preconditions_ok,
        final_is_reference=not residual,
        residual_wrong=residual,
        failures=tuple(failures),
    )


def render_trace(eps) -> str:
    """Plain-text trace of trace_build(eps): per column, the already-built
    part of the scheme beside the original column, with the scanned wrong
    '-' rows bracketed, then the move list at that stage.
    """
    eps = as_sign_vector(eps)
    # column j of every rendered row sits at character 2(j-1)
    rendered = generate_scheme(eps).render().split("\n")
    lines: list[str] = []
    # steps come in level order, and each level closes with an OP_LEVEL step
    for k, level in groupby(trace_build(eps), key=attrgetter("level")):
        level_steps = list(level)
        marks = {
            s.flipped[0][0]
            for s in level_steps
            if s.op in (OP_VERTICAL, OP_SUBSTITUTE)
        }
        width = max(2 * k - 3, 0)
        for i, row in enumerate(rendered[:k], 1):
            ch = row[2 * k - 2]
            cell = f"[{ch}]" if i in marks else f" {ch} "
            prefix = f"{row[:width]} |" if width else "|"
            lines.append((prefix + cell).rstrip())
        moves = level_steps[-1].moves
        lines.append(f"L({k}) = {{{', '.join(str(m) for m in moves)}}}")
        lines.append("")
    return "\n".join(lines[:-1])


def trace_to_obj(eps) -> dict:
    """trace_build(eps) as plain JSON-ready data: {"eps": [...], "steps": [...]}."""
    eps = as_sign_vector(eps)
    return {
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
            for s in trace_build(eps)
        ],
    }
