"""Command-line front end.

Subcommands: gen (render a generated scheme), normalize (build a move
certificate, optionally with a trace), check (replay a certificate
file), verify (run the corroboration suites), bound (the discriminant
bound calculator). Only verify loads numpy: its suites import oracle on
their first call.

Exit codes: 0 success or accepted, 1 verification failure or rejected
certificate, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

from .bounds import discriminant_bound
from .errors import (
    AlgorithmInvariantError,
    BoundViolationError,
    DimensionError,
    DomainError,
    InvalidMoveError,
    ResourceLimitError,
    TriangleIndexError,
    check_count,
)
from .moves import certificate_from_json, certificate_to_json, certificate_to_obj
from .normalize import (
    build_certificate,
    check_certificate,
    render_trace,
    report_to_json,
    trace_to_obj,
)
from .schemes import format_signs, generate_scheme, parse_signs

SEED_ENV = "SIGNSCHEMES_SEED"

SUITES = ("lemmas", "monotonicity", "bound")

# Typed errors that mean bad input or a refused run: exit code 2.
USAGE_ERRORS = (
    DomainError,
    DimensionError,
    TriangleIndexError,
    InvalidMoveError,
    ResourceLimitError,
)


def _oracle(name: str, *args, **kwargs):
    from . import oracle  # and so numpy, on the first call

    return getattr(oracle, name)(*args, **kwargs)


# run_suites calls these through this module's globals: a wrapper set here is what runs
verify_bound = functools.partial(_oracle, "verify_bound")
verify_identities = functools.partial(_oracle, "verify_identities")
verify_inequalities = functools.partial(_oracle, "verify_inequalities")
verify_monotonicity = functools.partial(_oracle, "verify_monotonicity")


def run_command(command, *args) -> int:
    """command(*args)'s exit code; a typed error is one 'error:' line and 2 or 1."""
    try:
        return command(*args)
    except (*USAGE_ERRORS, BoundViolationError, AlgorithmInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1


# Tokens shaped like sign vectors, e.g. '-,-,-' or '-1,1' or '--+'.
_DASH_VECTOR = re.compile(r"-[+\-01,\s]*")


def _escape_dash_vectors(argv):
    # argparse reads a leading '-' as an option prefix, but sign vectors
    # may legitimately start with one. A leading space keeps argparse
    # happy; parse_signs strips it. The bare '--' separator is kept.
    return [
        " " + tok if tok != "--" and _DASH_VECTOR.fullmatch(tok) else tok
        for tok in argv
    ]


def _cmd_gen(args) -> int:
    print(generate_scheme(parse_signs(args.signs)).render())
    return 0


def _cmd_normalize(args) -> int:
    eps = parse_signs(args.signs)
    if args.trace and not args.json:
        print(render_trace(eps))
        return 0
    cert = build_certificate(eps)
    if args.trace:
        obj = {
            "certificate": certificate_to_obj(cert),
            "trace": trace_to_obj(eps)["steps"],
        }
        print(json.dumps(obj, separators=(",", ":")))
    elif args.json:
        print(certificate_to_json(cert))
    elif cert.moves:
        for m in cert.moves:
            print(m)
    else:
        print("already normalized")
    return 0


def _cmd_check(args) -> int:
    eps = parse_signs(args.signs)
    try:
        with open(args.certificate, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DomainError(f"cannot read {args.certificate}: {exc}") from exc
    try:
        cert = certificate_from_json(data)
    except USAGE_ERRORS as exc:
        raise DomainError(f"certificate parse error: {exc}") from exc
    report = check_certificate(eps, cert)
    if args.json:
        print(report_to_json(report))
    else:
        print(f"sign vector: {format_signs(eps)}")
        print(f"moves: {len(cert.moves)}")
        print(f"sign vector matches: {_yn(report.source_matches)}")
        print(f"touched positions disjoint: {_yn(report.disjoint)}")
        print(f"move preconditions hold: {_yn(report.preconditions_ok)}")
        print(f"final scheme is target: {_yn(report.final_is_reference)}")
        if report.residual_wrong:
            spots = ", ".join(f"({i},{j})" for i, j in report.residual_wrong)
            print(f"residual wrong positions: {spots}")
        for line in report.failures:
            print(f"fail: {line}")
        print("accepted" if report.accepted else "rejected")
    return 0 if report.accepted else 1


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _runs(suite: str, n_max: int, samples: int):
    """(name, cap rule, suite function, size arguments) per run of suite."""
    from . import oracle

    if suite in ("lemmas", "all"):
        yield "identities", oracle.identities_cap, verify_identities, (n_max,)
        yield "inequalities", oracle.inequalities_cap, verify_inequalities, (samples,)
    if suite in ("monotonicity", "all"):
        mono = (min(n_max, oracle.MONOTONICITY_N_MAX), max(10, samples // 100))
        yield "monotonicity", oracle.monotonicity_cap, verify_monotonicity, mono
    if suite in ("bound", "all"):
        for n in range(1, n_max + 1):
            yield f"bound n={n}", oracle.bound_cap, verify_bound, (n, samples)


def run_suites(suite: str, n_max: int, samples: int, seed: int):
    """Yield (name, report) per run of suite (one of SUITES, or "all").

    lemmas: identities up to n_max, inequalities on samples points.
    monotonicity: to min(n_max, MONOTONICITY_N_MAX), max(10, samples // 100) per move.
    bound: one report per dimension up to n_max, budget samples each.
    Every run's cap is checked before the first run starts, stopping at
    the first refusal; the runs are generated once to check and once to
    run, so none are held.
    """
    if suite != "all" and suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}")
    n_max = check_count("n_max", n_max, 1)
    samples = check_count("samples", samples)
    for _, cap, _, args in _runs(suite, n_max, samples):
        cap(*args)
    for name, _, suite_fn, args in _runs(suite, n_max, samples):
        yield name, suite_fn(*args, seed=seed)


def _cmd_verify(args) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        raw = os.environ.get(SEED_ENV, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise DomainError(f"{SEED_ENV}={raw!r} is not an integer") from None
    named_reports = list(run_suites(args.suite, args.n_max, args.samples, seed))
    violations = []
    for name, rep in named_reports:
        violations.extend(f"{name}: {v}" for v in getattr(rep, "violations", ()))
    if args.json:
        obj = {
            "seed": seed,
            "reports": [
                {"suite": name, **dataclasses.asdict(rep)}
                for name, rep in named_reports
            ],
            "violations": len(violations),
        }
        print(json.dumps(obj, separators=(",", ":")))
    else:
        for name, rep in named_reports:
            print(f"{name}: {rep.summary()}")
        for line in violations:
            print(f"violation: {line}")
        print("verify: OK" if not violations else f"verify: {len(violations)} violation(s)")
    return 0 if not violations else 1


def _cmd_bound(args) -> int:
    res = discriminant_bound(args.degree, args.regulator, args.gamma)
    src = "table" if res.gamma_from_table else "input"
    print(
        f"degree {res.degree}, regulator {res.regulator:.12g}, "
        f"gamma {res.gamma:.12g} ({src})"
    )
    print(f"log|d| <= {res.value:.12g}")
    print(f"  main term:     {res.main_term:.12g}")
    print(f"  additive term: {res.additive_term:.12g}  [floor(n/2) * log 4]")
    print(
        f"  classical additive term, for comparison: "
        f"{res.comparison_additive:.12g}  [n * log n]"
    )
    print(
        "note: applies to totally real primitive fields; "
        "field properties are not checked"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signschemes",
        description=(
            "Sign-vector triangular schemes, rewrite-move certificates, "
            "and cube polynomial maxima."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="render the scheme generated by a sign vector")
    p.add_argument("signs", help="sign vector, e.g. '+,-,+' or '+-+' or '1,-1,1'")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("normalize", help="build a move certificate for a sign vector")
    p.add_argument("signs", help="sign vector")
    p.add_argument("--trace", action="store_true", help="show the column-by-column trace")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("check", help="replay a certificate file against a sign vector")
    p.add_argument("signs", help="sign vector")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="run the corroboration suites")
    p.add_argument(
        "--suite",
        choices=SUITES + ("all",),
        default="all",
        help="which suite to run (default: all)",
    )
    p.add_argument("--n-max", type=int, default=6, help="largest dimension to sweep")
    p.add_argument("--samples", type=int, default=10_000, help="sampling budget")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"random seed (default: ${SEED_ENV} or 0)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="discriminant bound from degree and regulator")
    p.add_argument("degree", type=int, help="field degree n >= 2")
    p.add_argument("regulator", type=float, help="regulator, positive")
    p.add_argument(
        "gamma",
        type=float,
        nargs="?",
        default=None,
        help="Hermite constant of rank n-1 (default: built-in table, n-1 <= 8)",
    )
    p.set_defaults(func=_cmd_bound)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_escape_dash_vectors(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
