"""End-to-end runs of the command-line interface via main(argv)."""

import json
import tracemalloc

import pytest

from signschemes import cli, oracle
from signschemes.cli import main, run_suites
from signschemes.errors import (
    AlgorithmInvariantError,
    BoundViolationError,
    DomainError,
    ResourceLimitError,
)
from signschemes.moves import (
    Certificate,
    certificate_from_json,
    certificate_to_json,
)
from signschemes.normalize import (
    build_certificate,
    check_certificate,
    render_trace,
)
from signschemes.oracle import report_to_json

WORKED = "+,-,+,+,-,+,+"
WORKED_EPS = (1, -1, 1, 1, -1, 1, 1)

WORKED_JSON = (
    '{"n":7,"eps":[1,-1,1,1,-1,1,1],"moves":['
    '{"kind":"H","i":1,"j":1,"j2":2},'
    '{"kind":"S","i":2,"i2":3,"j":3,"j2":6},'
    '{"kind":"S","i":1,"i2":4,"j":4,"j2":5},'
    '{"kind":"V","i":5,"i2":6,"j":6},'
    '{"kind":"V","i":4,"i2":7,"j":7},'
    '{"kind":"P","i":1,"j":7}]}'
)

GEN_FIVE = (
    "+ + - - +\n"
    "  + - - +\n"
    "    - - +\n"
    "      + -\n"
    "        -\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_golden_render(self, capsys):
        code, out, err = run(capsys, "gen", "+,+,-,+,-")
        assert code == 0
        assert out == GEN_FIVE
        assert err == ""

    def test_single_entry(self, capsys):
        code, out, _ = run(capsys, "gen", "-")
        assert code == 0
        assert out == "-\n"

    def test_compact_form_matches_comma_form(self, capsys):
        _, compact, _ = run(capsys, "gen", "++-+-")
        _, commas, _ = run(capsys, "gen", "+,+,-,+,-")
        assert compact == commas

    def test_empty_vector_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "")
        assert code == 2
        assert err.startswith("error:")

    def test_garbage_sign_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "+,2,-")
        assert code == 2
        assert err.startswith("error:")


class TestNormalize:
    def test_worked_vector_move_list(self, capsys):
        code, out, _ = run(capsys, "normalize", WORKED)
        assert code == 0
        assert out.splitlines() == [
            "Horizontal(1;1,2)",
            "Square(2,3;3,6)",
            "Square(1,4;4,5)",
            "Vertical(5,6;6)",
            "Vertical(4,7;7)",
            "Point(1;7)",
        ]

    def test_already_normalized(self, capsys):
        code, out, _ = run(capsys, "normalize", "-,-,-")
        assert code == 0
        assert out == "already normalized\n"

    def test_json_certificate_golden(self, capsys):
        code, out, _ = run(capsys, "normalize", WORKED, "--json")
        assert code == 0
        assert out == WORKED_JSON + "\n"

    def test_trace_matches_library_renderer(self, capsys):
        code, out, _ = run(capsys, "normalize", WORKED, "--trace")
        assert code == 0
        assert out == render_trace(WORKED_EPS) + "\n"

    def test_trace_json_shape(self, capsys):
        code, out, _ = run(capsys, "normalize", WORKED, "--trace", "--json")
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"certificate", "trace"}
        assert obj["certificate"] == json.loads(WORKED_JSON)
        assert isinstance(obj["trace"], list) and obj["trace"]
        assert all(
            set(step) == {"level", "op", "action", "flipped", "column", "moves"}
            for step in obj["trace"]
        )
        assert [s["level"] for s in obj["trace"] if s["op"] == "level"] == list(
            range(1, 8)
        )

    def test_builder_invariant_failure_exits_one(self, capsys, monkeypatch):
        def broken(eps):
            raise AlgorithmInvariantError("V = 0 at wrong '-' (1, 2)")

        monkeypatch.setattr(cli, "build_certificate", broken)
        code, out, err = run(capsys, "normalize", WORKED)
        assert code == 1
        assert out == ""
        assert err == "error: V = 0 at wrong '-' (1, 2)\n"


@pytest.fixture
def worked_cert_file(tmp_path):
    eps = (1, -1, 1, 1, -1, 1, 1)
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(build_certificate(eps)), encoding="utf-8")
    return path


class TestCheck:
    def test_accept(self, capsys, worked_cert_file):
        code, out, _ = run(capsys, "check", WORKED, str(worked_cert_file))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sign vector: + - + + - + +"
        assert lines[1] == "moves: 6"
        assert "sign vector matches: yes" in lines
        assert "touched positions disjoint: yes" in lines
        assert "move preconditions hold: yes" in lines
        assert "final scheme is target: yes" in lines
        assert lines[-1] == "accepted"

    def test_reject_truncated(self, capsys, tmp_path):
        eps = (1, -1, 1, 1, -1, 1, 1)
        cert = build_certificate(eps)
        obj = json.loads(certificate_to_json(cert))
        obj["moves"] = obj["moves"][:-1]  # drop the final point repair
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, out, _ = run(capsys, "check", WORKED, str(path))
        assert code == 1
        assert "final scheme is target: no" in out
        assert "residual wrong positions: (1,7)" in out
        assert out.splitlines()[-1] == "rejected"

    def test_json_report(self, capsys, worked_cert_file):
        code, out, _ = run(capsys, "check", WORKED, str(worked_cert_file), "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["accepted"] is True
        assert obj["eps"] == [1, -1, 1, 1, -1, 1, 1]
        assert obj["residual_wrong"] == []
        assert obj["failures"] == []

    def test_wrong_sign_vector_rejected(self, capsys, worked_cert_file):
        code, out, _ = run(capsys, "check", "+,-,+,+,-,+,-", str(worked_cert_file))
        assert code == 1
        assert "sign vector matches: no" in out

    def test_unparsable_certificate(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check", WORKED, str(path))
        assert code == 2
        assert "certificate parse error" in err

    def test_bad_move_indices_are_a_parse_error(self, capsys, tmp_path):
        # a TriangleIndexError is an IndexError, not a ValueError
        path = tmp_path / "bad_indices.json"
        path.write_text(
            '{"eps":[1,1],"moves":[{"kind":"P","i":2,"j":1}]}', encoding="utf-8"
        )
        code, out, err = run(capsys, "check", "+,+", str(path))
        assert code == 2 and out == ""
        assert err == "error: certificate parse error: invalid indices for Point(2;1)\n"

    def test_deeply_nested_certificate(self, capsys, tmp_path):
        # the JSON decoder recurses once per '[' and runs out of stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "check", WORKED, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: certificate parse error: maximum recursion")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", WORKED, str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe\x7b", WORKED_JSON.replace("]}", ',"\u00e9"]}').encode("latin-1")],
        ids=["truncated utf-16", "latin-1"],
    )
    def test_undecodable_certificate_is_a_parse_error(self, capsys, tmp_path, data):
        # the file was read as UTF-8 text: a UnicodeDecodeError traceback, exit 1
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        code, out, err = run(capsys, "check", WORKED, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: certificate parse error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
    def test_certificate_bytes_decode_as_in_the_library(
        self, capsys, tmp_path, encoding
    ):
        # the UTF-16 file crashed and the BOM file was a parse error
        path = tmp_path / "cert.json"
        path.write_text(WORKED_JSON, encoding=encoding)
        cert = certificate_from_json(path.read_bytes())
        expected = check_certificate(WORKED_EPS, cert)
        assert expected.accepted
        code, out, err = run(capsys, "check", WORKED, str(path), "--json")
        assert (code, out, err) == (0, report_to_json(expected) + "\n", "")


class TestVerify:
    def test_all_suites_small(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--n-max", "1", "--samples", "100"
        )
        assert code == 0
        assert out.splitlines()[-1] == "verify: OK"
        assert "identities:" in out
        assert "inequalities:" in out
        assert "monotonicity:" in out
        assert "bound n=1:" in out

    def test_identity_and_inequality_suite_counts(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "lemmas", "--n-max", "5", "--samples", "2000"
        )
        assert code == 0
        assert "vectors=62" in out
        assert "corners=32" in out

    def test_bound_suite_sweeps_dimensions(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "bound", "--n-max", "2", "--samples", "1000"
        )
        assert code == 0
        assert "bound n=1: best=2" in out
        assert "bound n=2: best=2" in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "lemmas",
            "--n-max",
            "2",
            "--samples",
            "500",
            "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["seed"] == 0
        assert obj["violations"] == 0
        assert [r["suite"] for r in obj["reports"]] == ["identities", "inequalities"]

    def test_seed_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNSCHEMES_SEED", "7")
        _, out, _ = run(
            capsys, "verify", "--suite", "lemmas", "--n-max", "2",
            "--samples", "500", "--json",
        )
        assert json.loads(out)["seed"] == 7

    def test_seed_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNSCHEMES_SEED", "7")
        _, out, _ = run(
            capsys, "verify", "--suite", "lemmas", "--n-max", "2",
            "--samples", "500", "--seed", "3", "--json",
        )
        assert json.loads(out)["seed"] == 3

    def test_invalid_move_is_a_violation(self, capsys, monkeypatch):
        # a Point repeated finds '-' where it needs '+': exit 1, not a usage error
        build = oracle.build_certificate

        def corrupt(eps):
            cert = build(eps)
            return Certificate(eps, cert.moves[:1] + cert.moves) if len(eps) == 3 else cert

        monkeypatch.setattr(oracle, "build_certificate", corrupt)
        argv = ("verify", "--suite", "monotonicity", "--n-max", "3", "--samples", "1000")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ""
        assert (
            "violation: monotonicity: certificate for (1, 1, 1): "
            "Point(1;1) requires '+' at (1, 1), found '-'"
        ) in out.splitlines()
        assert out.splitlines()[-1] == "verify: 7 violation(s)"

    def test_monotonicity_samples_scale_with_budget(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "monotonicity", "--n-max", "2",
            "--samples", "5000",
        )
        assert code == 0
        assert "samples_per_move=50 " in out

    def test_run_suites_rejects_unknown_suite(self):
        with pytest.raises(DomainError, match="unknown suite 'lemma'"):
            list(run_suites("lemma", 1, 10, 0))

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "bound", "--n-max", "0"),
            ("--suite", "bound", "--n-max", "-3", "--json"),
            ("--suite", "monotonicity", "--samples", "-5"),
        ],
    )
    def test_bad_sweep_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_identity_sweep_over_cap_is_usage_error(self, capsys, monkeypatch):
        # refused before the first scheme is built, so the run ends at once
        def no_work(eps):
            raise AssertionError("verify_identities started work")

        monkeypatch.setattr(oracle, "generate_scheme", no_work)
        code, out, err = run(capsys, "verify", "--suite", "lemmas", "--n-max", "60")
        assert code == 2
        assert out == ""
        assert err.startswith("error: verify_identities(60) would check")

    @pytest.mark.parametrize(
        "suite,text",
        [
            ("lemmas", "verify_inequalities would draw 300000 floats"),
            ("monotonicity", "verify_monotonicity would draw 2000 floats"),
            ("bound", "verify_bound would draw 100000 floats"),
        ],
    )
    def test_sampled_suite_over_cap_is_usage_error(
        self, capsys, monkeypatch, suite, text
    ):
        monkeypatch.setattr(oracle, "_FLOAT_CAP", 99)
        argv = ("verify", "--suite", suite, "--n-max", "2", "--samples", "100000")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {text}, cap is 99\n"

    @pytest.mark.parametrize(
        "argv,text,spied",
        [
            (
                ("--suite", "lemmas", "--n-max", "16", "--samples", "4000000"),
                "verify_inequalities would draw 12000000 floats",
                "verify_identities",
            ),
            (
                ("--suite", "bound", "--n-max", "41", "--samples", "250000"),
                "verify_bound would draw 10250000 floats",
                "verify_bound",
            ),
        ],
    )
    def test_later_run_over_cap_refuses_before_the_first_run(
        self, capsys, monkeypatch, argv, text, spied
    ):
        # the first run is under its cap, a later one is not: nothing runs
        calls = []
        monkeypatch.setattr(cli, spied, lambda *args, **kwargs: calls.append(args))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {text}, cap is 10000000\n"
        assert calls == []

    def test_violations_exit_one(self, capsys, monkeypatch):
        # at this tolerance every sampled point fails all four inequalities,
        # and the quad_swap residual is over it too
        monkeypatch.setattr(oracle, "FACTOR_TOL", -10.0)
        argv = ("verify", "--suite", "lemmas", "--n-max", "2", "--samples", "5")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        found = [line for line in lines if line.startswith("violation: ")]
        assert len(found) == 4 * 5 + 1
        assert all(line.startswith("violation: inequalities: ") for line in found)
        assert lines[-1] == "verify: 21 violation(s)"

    def test_bound_violation_exits_one(self, capsys, monkeypatch):
        def violated(n, budget, seed):
            raise BoundViolationError(f"random point (1.0,) gives 3.0 > bound {n}")

        monkeypatch.setattr(cli, "verify_bound", violated)
        argv = ("verify", "--suite", "bound", "--n-max", "2", "--samples", "10")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: random point (1.0,) gives 3.0 > bound 1\n"

    def test_run_suites_stops_checking_caps_at_the_first_refusal(self, monkeypatch):
        # n = 41 is refused, and no run past it is built: a list of one run
        # per dimension up to 10^6 would take over 200 MiB
        calls = []
        bound_cap = oracle.bound_cap

        def spy(n, budget):
            calls.append(n)
            return bound_cap(n, budget)

        monkeypatch.setattr(oracle, "bound_cap", spy)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="would draw 10250000 floats"):
                list(run_suites("bound", 10**6, 10**6, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == list(range(1, 42))
        assert peak < 2**20

    def test_run_suites_rejects_bad_counts(self):
        for n_max, samples in ((0, 10), (2.5, 10), (2, -5), (2, 1.5), (2, True)):
            with pytest.raises(DomainError):
                list(run_suites("monotonicity", n_max, samples, 0))

    def test_negative_seed_is_usage_error(self, capsys, monkeypatch):
        argv = ("verify", "--suite", "lemmas", "--n-max", "2", "--samples", "10")
        code, _, err = run(capsys, *argv, "--seed", "-1")
        assert code == 2
        assert "seed must be a nonnegative integer" in err
        monkeypatch.setenv("SIGNSCHEMES_SEED", "-1")
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "seed must be a nonnegative integer" in err

    def test_bad_environment_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGNSCHEMES_SEED", "abc")
        code, _, err = run(capsys, "verify", "--suite", "lemmas", "--n-max", "2")
        assert code == 2
        assert "not an integer" in err


class TestBound:
    def test_quadratic_worked_value(self, capsys):
        code, out, _ = run(capsys, "bound", "2", "1", "1")
        assert code == 0
        assert "log|d| <= 3.38629436112" in out
        assert "(input)" in out
        assert "field properties are not checked" in out

    def test_table_gamma(self, capsys):
        code, out, _ = run(capsys, "bound", "3", "1")
        assert code == 0
        assert "(table)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "1", "1"),
            ("bound", "2", "-1"),
            ("bound", "2", "1", "0"),
            ("bound", "10", "1"),
            ("bound", "2", "1e308", "1e308"),
        ],
    )
    def test_domain_errors_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_explicit_gamma_beyond_table(self, capsys):
        code, out, _ = run(capsys, "bound", "10", "1", "3.0")
        assert code == 0
        assert "log|d| <=" in out


class TestUsage:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (BoundViolationError("3.0 > bound 2"), 1),
            (AlgorithmInvariantError("V = 0"), 1),
            (DomainError("bad input"), 2),
            (ResourceLimitError("too big, cap is 1"), 2),
        ],
    )
    def test_run_command_maps_typed_errors(self, capsys, exc, code):
        def command(arg):
            assert arg == "arg"
            raise exc

        assert cli.run_command(command, "arg") == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {exc}\n")

    def test_run_command_returns_the_exit_code(self, capsys):
        assert cli.run_command(lambda: 3) == 3
        assert capsys.readouterr().err == ""

    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["nope"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out


# Exact stdout of verify and check, recorded before the suites and the
# reports shared one runner and one summary/JSON path.
VERIFY_GOLDEN_TEXT = (
    "identities: vectors=14 squares=0 sums=31 parity=10 seed=5 violations=0\n"
    "inequalities: samples=1000 corners=32 max_residual=6.66e-16 seed=5 "
    "violations=0\n"
    "monotonicity: certificates=14 moves=20 samples_per_move=10 seed=5 "
    "violations=0\n"
    "bound n=1: best=2 bound=2 method=vertex-enum attained=yes "
    "evaluations=2026 seed=5\n"
    "bound n=2: best=2 bound=2 method=vertex-enum attained=yes "
    "evaluations=1974 seed=5\n"
    "bound n=3: best=4 bound=4 method=vertex-enum attained=yes "
    "evaluations=1969 seed=5\n"
    "verify: OK\n"
)

VERIFY_GOLDEN_JSON = (
    '{"seed":5,"reports":['
    '{"suite":"identities","n_max":3,"vectors_checked":14,"squares_checked":0,'
    '"sums_checked":31,"parity_checked":10,"exhaustive":true,"seed":5,'
    '"violations":[]},'
    '{"suite":"inequalities","samples":1000,"seed":5,"checked":4000,'
    '"corner_checks":32,"max_residual":6.661338147750939e-16,"violations":[]},'
    '{"suite":"monotonicity","n_max":3,"certificates":14,"moves_checked":20,'
    '"samples_per_move":10,"seed":5,"violations":[]},'
    '{"suite":"bound n=1","n":1,"best_value":2.0,"best_point":[-1.0],'
    '"method":"vertex-enum","bound":2,"within_bound":true,"attained":true,'
    '"evaluations":2026,"seed":5,"budget":1000,"step":null,"findings":[]},'
    '{"suite":"bound n=2","n":2,"best_value":2.0,"best_point":[0.0,-1.0],'
    '"method":"vertex-enum","bound":2,"within_bound":true,"attained":true,'
    '"evaluations":1974,"seed":5,"budget":1000,"step":null,"findings":[]},'
    '{"suite":"bound n=3","n":3,"best_value":4.0,"best_point":[-1.0,0.0,-1.0],'
    '"method":"vertex-enum","bound":4,"within_bound":true,"attained":true,'
    '"evaluations":1969,"seed":5,"budget":1000,"step":null,"findings":[]}'
    '],"violations":0}\n'
)

CHECK_GOLDEN = {
    "accepted": (
        0,
        "sign vector: + - + + - + +\n"
        "moves: 6\n"
        "sign vector matches: yes\n"
        "touched positions disjoint: yes\n"
        "move preconditions hold: yes\n"
        "final scheme is target: yes\n"
        "accepted\n",
        '{"eps":[1,-1,1,1,-1,1,1],"accepted":true,"source_matches":true,'
        '"disjoint":true,"preconditions_ok":true,"final_is_reference":true,'
        '"residual_wrong":[],"failures":[]}\n',
    ),
    "truncated": (
        1,
        "sign vector: + - + + - + +\n"
        "moves: 5\n"
        "sign vector matches: yes\n"
        "touched positions disjoint: yes\n"
        "move preconditions hold: yes\n"
        "final scheme is target: no\n"
        "residual wrong positions: (1,7)\n"
        "rejected\n",
        '{"eps":[1,-1,1,1,-1,1,1],"accepted":false,"source_matches":true,'
        '"disjoint":true,"preconditions_ok":true,"final_is_reference":false,'
        '"residual_wrong":[[1,7]],"failures":[]}\n',
    ),
    "other_vector": (
        1,
        "sign vector: + - + + - + -\n"
        "moves: 6\n"
        "sign vector matches: no\n"
        "touched positions disjoint: yes\n"
        "move preconditions hold: no\n"
        "final scheme is target: no\n"
        "residual wrong positions: (2,7), (3,7), (5,7), (6,7)\n"
        "fail: certificate sign vector differs from the input vector\n"
        "fail: move 4 Vertical(4,7;7): needs '-' at (4, 7), found '+'\n"
        "fail: move 5 Point(1;7): needs '+' at (1, 7), found '-'\n"
        "rejected\n",
        '{"eps":[1,-1,1,1,-1,1,-1],"accepted":false,"source_matches":false,'
        '"disjoint":true,"preconditions_ok":false,"final_is_reference":false,'
        '"residual_wrong":[[2,7],[3,7],[5,7],[6,7]],'
        '"failures":["certificate sign vector differs from the input vector",'
        '"move 4 Vertical(4,7;7): needs \'-\' at (4, 7), found \'+\'",'
        '"move 5 Point(1;7): needs \'+\' at (1, 7), found \'-\'"]}\n',
    ),
}


class TestGolden:
    VERIFY = ("verify", "--suite", "all", "--n-max", "3", "--samples", "1000",
              "--seed", "5")

    def test_verify_text(self, capsys):
        assert run(capsys, *self.VERIFY) == (0, VERIFY_GOLDEN_TEXT, "")

    def test_verify_json(self, capsys):
        assert run(capsys, *self.VERIFY, "--json") == (0, VERIFY_GOLDEN_JSON, "")

    @pytest.mark.parametrize("case", sorted(CHECK_GOLDEN))
    @pytest.mark.parametrize("as_json", [False, True])
    def test_check(self, capsys, tmp_path, case, as_json):
        obj = json.loads(certificate_to_json(build_certificate(WORKED_EPS)))
        signs = WORKED
        if case == "truncated":
            obj["moves"] = obj["moves"][:-1]
        elif case == "other_vector":
            signs = "+,-,+,+,-,+,-"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        code, text, js = CHECK_GOLDEN[case]
        argv = ("check", signs, str(path)) + (("--json",) if as_json else ())
        assert run(capsys, *argv) == (code, js if as_json else text, "")
