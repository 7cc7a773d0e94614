#!/usr/bin/env python3
"""signschemes benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 30 --trace 0

Run from the repository root (the package is imported from ./src). One
caller, one process, one thread: each pass of the workload's fixed,
seeded inputs starts when the previous one ends, until the next pass
would overrun --seconds. Every pass checks its outputs and must yield
the same certificate and report digests.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, with
throughput gated relative to a fixed reference routine (refclock.py);
--trace 1 alternates untraced and traced passes and prints the
per-layer metrics, the tracing overhead, and writes the spans to
perfbench/out/. The last stdout line is the JSON result; the lines
before it state the run conditions, the checks and every metric with
its unit. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# A second seed, kept aside for re-checking a claim made on other seeds.
RECHECK_SEED = 7919

# setup_s is the median of the run's own set-up and this many fresh
# processes that only set up.
SETUP_PROBES = 4


def _import_package():
    """Import signschemes from ./src of this checkout and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import signschemes

    if Path(signschemes.__file__).resolve().parent != src / "signschemes":
        raise ImportError(f"signschemes was imported from {signschemes.__file__}")


def set_up(name: str, seed: int):
    """Import, build the inputs and warm up; return (workload, seconds)."""
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.warm_up()
    return wl, time.perf_counter() - _T0


def run_pass(wl, tracer=None):
    """One pass, with the reference routine timed between its items."""
    import refclock

    clock = refclock.RefClock()

    def mark(unit: int) -> None:
        if tracer is not None:
            tracer.mark(unit)
        clock.tick()

    clock.tick(force=True)
    res = wl.run_pass(mark)
    clock.tick(force=True)
    res.ref_s = clock.seconds()
    return res


def measure(wl, seconds: float, trace: bool):
    """Run passes until the next one would overrun `seconds`.

    Returns (untraced passes, traced passes); each pass is a PassResult,
    and traced ones come paired with their Tracer. With trace, untraced
    and traced passes alternate so that drift hits both alike.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                res = run_pass(wl, tracer)
            finally:
                tracer.uninstall()
            traced.append((res, tracer))
        else:
            res = run_pass(wl)
            untraced.append(res)
        done = untraced and (traced or not trace)
        if done and time.perf_counter() - start + res.busy_s > seconds:
            return untraced, traced


def _median_busy(passes) -> float:
    return statistics.median(p.busy_s for p in passes)


def _setup_probes(args) -> list:
    """Set-up seconds of fresh processes that stop after warming up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--trace", "0", "--setup-only",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(wl, passes, setup_s: float, args) -> dict:
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + _setup_probes(args)
    print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_ref": statistics.median(
            wl.units_per_pass * p.ref_s / p.busy_s for p in passes
        ),
        "peak_rss_mib": peak_rss_mib,
    }
    # Printed but not gated: raw throughput drifts with the machine (see
    # refclock.py), and only the certificate workloads have latencies.
    print(f"metric units_per_s = {wl.units_per_pass / _median_busy(passes):.6g} "
          f"{wl.unit}s/s")
    print(f"metric ref_ms = {1e3 * statistics.median(p.ref_s for p in passes):.6g} ms"
          "  (one reference call)")
    cert_ms = [ms for p in passes for ms in p.cert_ms]
    if len(cert_ms) >= 100:
        print(f"metric cert_p50_ms = {statistics.median(cert_ms):.6g} ms")
        print(f"metric cert_p90_ms = {statistics.quantiles(cert_ms, n=10)[-1]:.6g} ms"
              f"  ({len(cert_ms)} samples)")
    return metrics


def per_layer(wl, untraced, traced, problems: list) -> dict:
    import tracing

    per_pass = []
    for res, tracer in traced:
        m = tracing.layer_metrics(tracer)
        calls = m["normalize.check_certificate.calls"]
        accepted = m.pop("normalize.check_certificate.accepted")
        m["normalize.check_certificate.accepted_ratio"] = accepted / calls if calls else 0.0
        m["trace.pass_s"] = res.busy_s
        m["trace.spans"] = len(tracer.spans)
        per_pass.append(m)

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between passes: {values}")
            metrics[name] = values[0]
    # pass cost in reference calls, so that machine drift between the
    # alternating passes cancels as it does for units_per_ref
    def cost(passes):
        return statistics.median(p.busy_s / p.ref_s for p in passes)

    metrics["trace.overhead_pct"] = 100 * (
        cost([r for r, _ in traced]) / cost(untraced) - 1
    )
    _write_spans(wl, traced)
    return metrics


def _write_spans(wl, traced) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": wl.name,
            "seed": wl.seed,
            "fields": ["pass", "name", "start_s", "end_s", "parent", "unit"],
        }) + "\n")
        for k, (_, tracer) in enumerate(traced):
            t0 = tracer.spans[0][1] if tracer.spans else 0.0
            for name, start, end, parent, unit in tracer.spans:
                fh.write(json.dumps([k, name, start - t0, end - t0, parent, unit]) + "\n")
    print(f"# spans written to {path.relative_to(ROOT)}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _print_conditions(wl, args, setup_s: float) -> None:
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "?"
    print(f"# workload: {wl.name}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}  recheck seed: {RECHECK_SEED}")
    print(f"# machine: nproc={os.cpu_count()} usable_cpus={affinity} "
          f"cpu={_cpu_model()!r}")
    print(f"# software: python={platform.python_version()} numpy={numpy.__version__}")
    print(f"# inputs: {wl.sizes()}; unit: one {wl.unit}, "
          f"{wl.units_per_pass} per pass")
    print(f"# set-up of this process: {setup_s:.4f} s")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    _print_conditions(wl, args, setup_s)
    untraced, traced = measure(wl, args.seconds, bool(args.trace))
    passes = untraced + [res for res, _ in traced]
    problems = [why for p in passes for why in p.problems]
    digests = {(p.cert_sha.hexdigest(), p.report_sha.hexdigest()) for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on their digests: {sorted(digests)}")
    cert_sha, report_sha = sorted(digests)[0]
    print(f"# passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"pass seconds: {' '.join(f'{p.busy_s:.3f}' for p in passes)}; "
          f"reference ms: {' '.join(f'{1e3 * p.ref_s:.3f}' for p in passes)}")
    print(f"digest certificates sha256={cert_sha}")
    print(f"digest reports sha256={report_sha}")

    if args.trace:
        declared = spec["per_layer"]
        values = per_layer(wl, untraced, traced, problems)
        timed = values["trace.pass_s"]
    else:
        declared = spec["end_to_end"]
        values = end_to_end(wl, untraced, setup_s, args)
        timed = None

    metrics = {}
    for m in declared:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        share = f"  ({100 * value / timed:.1f}% of pass)" if timed and m["unit"] == "s" else ""
        print(f"metric {m['name']} = {value:.6g} {m['unit']}{share}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # failures are gated through the result's attempted and failed
    print(f"metric failed_ratio = {failed / attempted:.6g} ratio")
    for why in problems:
        print(f"problem: {why}")
    print(f"# checks: {'all passed' if not problems else f'{len(problems)} problem(s)'}; "
          f"{failed} of {attempted} units failed")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
