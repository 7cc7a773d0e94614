"""Smoke runs of the scripts in scripts/, as separate processes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from signschemes.cli import run_suites
from signschemes.errors import BoundViolationError

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_run_verification_prints_one_summary_per_report():
    proc = run_script("run_verification.py", "--n-max", "3", "--samples", "500")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "OK"
    expected = [f"{name}: {rep.summary()}" for name, rep in run_suites("all", 3, 500, 0)]
    assert len(lines) == len(expected) + 1
    for line, want in zip(lines, expected):
        assert re.fullmatch(r"(.*) \[\d+\.\ds\]", line).group(1) == want


@pytest.mark.parametrize("argv", [("--seed", "-1"), ("--n-max", "0")])
def test_run_verification_usage_errors_exit_2(argv):
    proc = run_script("run_verification.py", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1


def load_script(name):
    """The script as a module, to run in-process with patched suites."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_run_verification_bound_violation_exits_1(capsys, monkeypatch):
    # in-process, so that a suite can raise: this ended in a traceback
    script = load_script("run_verification")

    def violated(*args):
        raise BoundViolationError("random point (1.0,) gives 3.0 > bound 2")
        yield

    monkeypatch.setattr(script, "run_suites", violated)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--n-max", "2"])
    assert script.main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: random point (1.0,) gives 3.0 > bound 2\n"


def test_run_verification_prints_each_violation(capsys, monkeypatch):
    # the violations were counted but never printed
    class Report:
        def __init__(self, *violations):
            self.violations = violations

        def summary(self):
            return f"{len(self.violations)} bad"

    script = load_script("run_verification")
    reports = [("identities", Report("a fails")), ("bound n=2", Report("b", "c"))]
    monkeypatch.setattr(script, "run_suites", lambda *args: iter(reports))
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--n-max", "2"])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert [re.sub(r" \[\d+\.\ds\]$", "", line) for line in lines[:2]] == [
        "identities: 1 bad",
        "bound n=2: 2 bad",
    ]
    assert lines[2:] == [
        "violation: identities: a fails",
        "violation: bound n=2: b",
        "violation: bound n=2: c",
        "3 violation(s)",
    ]


def test_worked_example_is_accepted():
    proc = run_script("worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "checker verdict: accepted"
