"""The numpy-backed modules load on first use, and every old name still binds.

evaluate and oracle are the only modules that import numpy. The package
binds their names on first access (PEP 562), and the CLI's four verify_*
suites import oracle on their first call, so building, serialising and
checking a certificate, the gen, normalize, check and bound commands,
and reading or wrapping cli.verify_bound never load numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signschemes
import signschemes.cli as cli
from signschemes import bounds, errors, evaluate, moves, normalize, oracle, schemes
from signschemes.cli import run_suites

SRC = Path(signschemes.__file__).resolve().parent.parent

# Every public name that `import signschemes` bound before evaluate and
# oracle became lazy, by the module it comes from.
EXPORTS = {
    bounds: "HERMITE_MAX_RANK HERMITE_POWERS BoundResult discriminant_bound "
    "hermite_constant",
    errors: "AlgorithmInvariantError BoundViolationError DimensionError DomainError "
    "InvalidMoveError ResourceLimitError TriangleIndexError",
    evaluate: "FACTOR_INEQUALITIES FACTOR_TOL PRODUCT_TOL InequalityCheck chamber_of "
    "change_of_variables check_factor_inequality eval_f eval_f_batch eval_p eval_q "
    "eval_q_batch",
    moves: "Certificate Move apply_move certificate_from_json certificate_from_obj "
    "certificate_to_json certificate_to_obj pattern_mismatch",
    normalize: "CheckReport TraceStep build_certificate check_certificate render_trace "
    "trace_build trace_to_obj report_to_json",
    oracle: "IdentityReport InequalityReport MaxReport MonotonicityReport "
    "candidate_maximizers grid_max qmax_bound verify_bound "
    "verify_identities verify_inequalities verify_monotonicity",
    schemes: "MINUS PLUS Scheme all_sign_vectors as_sign_vector format_signs "
    "generate_scheme is_reference parse_signs reference_scheme reference_sign "
    "sign_char wrong_set",
}
SUBMODULES = "bounds errors evaluate moves normalize oracle schemes".split()

# Runs in a fresh interpreter; prints one JSON object: for each step,
# whether numpy was loaded after it.
PROBE = """
import contextlib, io, json, sys
import signschemes, signschemes.cli
from signschemes import (
    build_certificate, certificate_from_json, certificate_to_json, check_certificate,
)
loaded = {}
def step(name):
    loaded[name] = "numpy" in sys.modules
step("import")
names = sorted(dir(signschemes))
step("dir")
eps = (1, -1, 1, 1, -1, -1, 1, -1)
text = certificate_to_json(build_certificate(eps))
assert check_certificate(eps, certificate_from_json(text)).accepted
step("certificate")
with open(sys.argv[1], "w") as fh:
    fh.write(text)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["gen", "+-++--+-"],
        ["normalize", "+-++--+-", "--json"],
        ["check", "+-++--+-", sys.argv[1], "--json"],
        ["bound", "5", "1.0"],
    ):
        assert signschemes.cli.main(argv) == 0, argv
        step(argv[0])
calls = []
unwrapped = signschemes.cli.verify_bound
def wrapper(*args, **kwargs):
    calls.append(args)
    return unwrapped(*args, **kwargs)
signschemes.cli.verify_bound = wrapper
step("wrap")
assert [name for name, _ in signschemes.cli.run_suites("bound", 1, 10, 0)] == ["bound n=1"]
assert calls == [(1, 10)]
step("run_suites")
print(json.dumps({"loaded": loaded, "dir": names}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def test_certificates_and_the_numpy_free_commands_never_load_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path / "cert.json")],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert {n for home in EXPORTS.values() for n in home.split()} <= set(out["dir"])
    assert out["loaded"] == {
        "import": False, "dir": False, "certificate": False, "gen": False,
        "normalize": False, "check": False, "bound": False, "wrap": False,
        "run_suites": True,
    }


# Runs in a fresh interpreter; prints the names a star import bound and
# whether numpy is then loaded.
STAR_IMPORT = """
import json, sys
before = {*globals(), "before"}
from signschemes import *
names = sorted(set(globals()) - before)
print(json.dumps({"names": names, "numpy": "numpy" in sys.modules}))
"""


def test_a_star_import_binds_every_public_name_lazy_ones_too():
    proc = subprocess.run(
        [sys.executable, "-c", STAR_IMPORT],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["names"] == sorted(signschemes.__all__)
    assert {n for home in EXPORTS.values() for n in home.split()} <= set(out["names"])
    assert set(SUBMODULES) <= set(out["names"])
    assert out["numpy"]


@pytest.mark.parametrize(
    "home, name",
    [(home, name) for home, names in EXPORTS.items() for name in names.split()],
)
def test_every_old_name_is_bound_to_its_home_object(home, name):
    assert name in dir(signschemes)
    assert getattr(signschemes, name) is getattr(home, name)


def test_submodules_stay_attributes_of_the_package():
    for name in SUBMODULES:
        assert name in dir(signschemes)
        assert getattr(signschemes, name) is sys.modules[f"signschemes.{name}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        signschemes.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


def test_a_wrapper_set_before_any_suite_ran_is_what_run_suites_calls(monkeypatch):
    calls = []

    def fake(n, budget, seed):
        calls.append((n, budget, seed))
        return f"report {n}"

    monkeypatch.setattr("signschemes.cli.verify_bound", fake)
    assert list(run_suites("bound", 2, 10, 0)) == [
        ("bound n=1", "report 1"),
        ("bound n=2", "report 2"),
    ]
    assert calls == [(1, 10, 0), (2, 10, 0)]
    assert cli.verify_bound is fake
