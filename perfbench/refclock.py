"""A fixed reference routine, timed between the workload's items.

On a shared machine the speed of allocation-heavy Python code drifts by
tens of percent over minutes, because of other tenants, not the program.
Timing this fixed routine every few milliseconds of a pass measures that
drift where and when it happens. A pass's time divided by the routine's
time in the same pass barely moves with it, which makes it the gated
throughput; raw seconds are printed beside it.

The routine belongs to the benchmark and must not change, or throughputs
measured before and after the change are not comparable.
"""

from dataclasses import dataclass
from statistics import fmean
from time import perf_counter

# One call takes about 0.5 ms; at most one call per interval keeps the
# added time near 2% of a pass.
INTERVAL_S = 0.02


@dataclass(frozen=True)
class _Point:
    a: int
    b: int


def reference() -> int:
    """Fixed work of the kind the program does: small frozen dataclasses,
    tuple keys, dict inserts, short lists and str conversions."""
    table = {}
    for i in range(400):
        p = _Point(i, i + 1)
        table[(p.a, p.b)] = [p.a, p.b, str(p.a)]
    return len(table)


class RefClock:
    """Times reference() at most once per INTERVAL_S, or when forced."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def tick(self, force: bool = False) -> None:
        start = perf_counter()
        if force or start >= self._due:
            reference()
            end = perf_counter()
            self.samples.append(end - start)
            self._due = end + INTERVAL_S

    def seconds(self) -> float:
        """Mean time of one reference() call; a mean, like the pass time
        it is compared with, which is a sum."""
        return fmean(self.samples)
