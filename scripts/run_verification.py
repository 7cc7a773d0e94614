#!/usr/bin/env python3
"""Run every corroboration suite at desk scale and report violations.

Prints the same summary line per report as `signschemes verify`, each
followed by the wall time of its stage.
"""

import argparse
import sys
import time

from signschemes.cli import run_suites


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    violations = 0
    t0 = time.perf_counter()
    for name, rep in run_suites("all", args.n_max, args.samples, args.seed):
        violations += len(getattr(rep, "violations", ()))
        print(f"{name}: {rep.summary()} [{time.perf_counter() - t0:.1f}s]", flush=True)
        t0 = time.perf_counter()

    print("OK" if violations == 0 else f"{violations} violation(s)")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
