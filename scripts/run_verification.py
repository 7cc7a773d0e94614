#!/usr/bin/env python3
"""Run every corroboration suite at desk scale and report violations.

Prints the same summary line per report as `signschemes verify`, each
followed by the wall time of its stage, then each violation as a
`violation: <suite>: <text>` line. Exit codes as for the CLI: 0 no
violations, 1 violations or a raised bound violation, 2 bad arguments or
a refused run (each error one `error:` line on stderr).
"""

import argparse
import sys
import time

from signschemes.cli import run_command, run_suites


def _report(args) -> int:
    violations = []
    t0 = time.perf_counter()
    for name, rep in run_suites("all", args.n_max, args.samples, args.seed):
        violations.extend(f"{name}: {v}" for v in getattr(rep, "violations", ()))
        stage_s = time.perf_counter() - t0
        print(f"{name}: {rep.summary()} [{stage_s:.1f}s]", flush=True)
        t0 = time.perf_counter()

    for line in violations:
        print(f"violation: {line}")
    print("OK" if not violations else f"{len(violations)} violation(s)")
    return 0 if not violations else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    return run_command(_report, args)


if __name__ == "__main__":
    sys.exit(main())
