import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from sheafplectic import suites
from sheafplectic.cli import (
    Manifest,
    ParseError,
    UnknownName,
    ValidationError,
    build_parser,
    emit_manifest,
    main,
    parse_manifest,
    run_command,
)
from sheafplectic.pairing import Degenerate, NotInvariant

REPO = Path(__file__).resolve().parents[1]
MANIFESTS = REPO / "manifests"

MINIMAL = json.dumps({
    "format": "sheafplectic-manifest/1",
    "space": {"points": ["p0"], "opens": [[], ["p0"]]},
    "field": "Q",
    "rank": 2,
    "form": {"p0": [["0", "1"], ["-1", "0"]]},
})


# the package of this checkout, whether or not it is installed
CLI_ENV = dict(os.environ, PYTHONPATH=str(REPO / "src"))


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "sheafplectic", *argv],
                          capture_output=True, text=True, cwd=REPO, env=CLI_ENV)
    return proc.returncode, proc.stdout


class TestParseManifest:
    def test_minimal_valid(self):
        m = parse_manifest(MINIMAL)
        assert m.rank == 2 and m.form is not None
        assert m.space.points == ("p0",)

    def test_nonzero_diagonal_rejected(self):
        bad = MINIMAL.replace('[["0", "1"], ["-1", "0"]]',
                              '[["1", "0"], ["0", "0"]]')
        with pytest.raises(ValidationError) as exc:
            parse_manifest(bad)
        assert exc.value.path == "form.p0"
        assert "diagonal" in exc.value.message

    def test_nonskew_rejected(self):
        bad = MINIMAL.replace('[["0", "1"], ["-1", "0"]]',
                              '[["0", "1"], ["1", "0"]]')
        with pytest.raises(ValidationError) as exc:
            parse_manifest(bad)
        assert "skew" in exc.value.message

    def test_zero_denominator_is_parse_error(self):
        bad = MINIMAL.replace('"1"', '"1/0"', 1)
        with pytest.raises(ParseError):
            parse_manifest(bad)

    def test_float_literal_rejected(self):
        bad = MINIMAL.replace('"1"', '"1.5"', 1)
        with pytest.raises(ParseError):
            parse_manifest(bad)

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_manifest("{ not json")
        assert exc.value.line >= 1

    def test_unknown_section_rejected(self):
        doc = json.loads(MINIMAL)
        doc["extras"] = {}
        with pytest.raises(ValidationError):
            parse_manifest(json.dumps(doc))

    def test_unknown_point_in_map(self):
        doc = json.loads(MINIMAL)
        doc["form"]["zz"] = doc["form"]["p0"]
        with pytest.raises(ValidationError):
            parse_manifest(json.dumps(doc))

    def test_bad_format_string(self):
        doc = json.loads(MINIMAL)
        doc["format"] = "something-else"
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(doc))
        assert exc.value.path == "format"

    def test_topology_violation_rejected(self):
        doc = json.loads(MINIMAL)
        doc["space"] = {"points": ["a", "b"], "opens": [[], ["a"], ["b"]]}
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(doc))
        assert exc.value.path == "space"

    def test_fp_entries_must_be_integers(self):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": 3}
        doc["form"] = {"p0": [[0, "1"], [2, 0]]}
        with pytest.raises(ParseError):
            parse_manifest(json.dumps(doc))

    def test_nonprime_modulus(self):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": 4}
        del doc["form"]
        with pytest.raises(ValidationError):
            parse_manifest(json.dumps(doc))

    def test_point_cap(self, monkeypatch):
        monkeypatch.setenv("SHEAFPLECTIC_MAX_POINTS", "1")
        doc = json.loads(MINIMAL)
        doc["space"] = {"points": ["a", "b"],
                        "opens": [[], ["a"], ["a", "b"]]}
        doc["form"] = {x: [["0", "1"], ["-1", "0"]] for x in ("a", "b")}
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(doc))
        assert "cap" in exc.value.message

    def test_round_trip_all_example_manifests(self):
        for name in sorted(MANIFESTS.glob("*.json")):
            text = name.read_text()
            first = emit_manifest(parse_manifest(text))
            second = emit_manifest(parse_manifest(first))
            assert first == second


class TestRunCommand:
    def manifest(self, name):
        return parse_manifest((MANIFESTS / name).read_text())

    def args(self, *argv):
        return build_parser().parse_args(argv)

    def test_classify_lagrangian(self):
        m = self.manifest("point_rank2.json")
        code, recs = run_command(
            m, "classify", self.args("-m", "x", "classify", "--sub", "L"))
        assert code == 0
        assert recs[0]["lagrangian"] is True

    def test_classify_lagrangian_pair_plane(self):
        m = self.manifest("sierpinski_rank4.json")
        code, recs = run_command(
            m, "classify", self.args("-m", "x", "classify", "--sub", "L"))
        assert code == 0
        assert recs[0]["lagrangian"] is True

    def test_darboux_value(self):
        m = self.manifest("sierpinski_rank4.json")
        code, recs = run_command(
            m, "darboux", self.args("-m", "x", "darboux", "--at", "a"))
        assert code == 0
        assert recs[0]["half_rank"] == 2

    def test_reduce_rejects_non_coisotropic(self):
        m = self.manifest("point_rank2.json")
        code, recs = run_command(
            m, "reduce", self.args("-m", "x", "reduce", "--sub", "zero"))
        assert code == 1
        assert recs[0]["error"] == "NotCoisotropic"

    def test_unknown_name_exit_one(self):
        m = self.manifest("point_rank2.json")
        code, recs = run_command(
            m, "classify", self.args("-m", "x", "classify", "--sub", "nope"))
        assert code == 1
        assert recs[0]["error"] == "UnknownName"

    def test_check_suite_passes(self):
        m = self.manifest("discrete_f3.json")
        code, recs = run_command(
            m, "check",
            self.args("-m", "x", "check", "--suite", "transpose",
                      "--seed-rng", "5"))
        assert code == 0
        assert recs[-1]["verdict"] == "pass"


class TestSuiteErrors:
    """A suite reports a mathematical failure as a failing record, and lets
    an internal error (a tripped guard, a bug) escape instead."""

    @pytest.mark.parametrize("name", ["induced_pairing", "induced_endomorphism"])
    def test_internal_error_escapes(self, monkeypatch, name):
        def broken(*args):
            raise RuntimeError("postcondition tripped")

        monkeypatch.setattr(suites, name, broken)
        m = parse_manifest((MANIFESTS / "discrete_f3.json").read_text())
        with pytest.raises(RuntimeError, match="postcondition tripped"):
            suites.suite_annihilator_theorem(m, random.Random(7))

    @pytest.mark.parametrize("name,part,error", [
        ("induced_pairing", "g", Degenerate("pairing is degenerate at 'a'")),
        ("induced_endomorphism", "h", NotInvariant("a", ()))])
    def test_mathematical_failure_is_a_failing_record(self, monkeypatch,
                                                      name, part, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(suites, name, failing)
        m = parse_manifest((MANIFESTS / "discrete_f3.json").read_text())
        recs = suites.suite_annihilator_theorem(m, random.Random(7))
        failed = [r["check"] for r in recs if not r["ok"]]
        assert failed and all(c.endswith("/" + part) for c in failed)


class TestInternalErrors:
    """An exception that is neither an input error nor a mathematical
    failure ends the command with an ``error`` record and exit code 4."""

    RECORD = {"command": "check", "verdict": "error", "error": "RuntimeError",
              "witness": "postcondition tripped"}

    def test_main_reports_error_record(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("postcondition tripped")

        monkeypatch.setattr(suites, "induced_pairing", broken)
        code = main(["-m", str(MANIFESTS / "discrete_f3.json"), "check",
                     "--suite", "annihilator-theorem"])
        assert code == 4
        assert [json.loads(line) for line in
                capsys.readouterr().out.splitlines()] == [self.RECORD]

    def test_process_exits_four_without_traceback(self, tmp_path):
        # sitecustomize runs at interpreter start, before the command
        (tmp_path / "sitecustomize.py").write_text(
            "from sheafplectic import suites\n"
            "def broken(*args):\n"
            "    raise RuntimeError('postcondition tripped')\n"
            "suites.induced_pairing = broken\n")
        env = dict(CLI_ENV, PYTHONPATH=os.pathsep.join(
            [str(tmp_path), CLI_ENV["PYTHONPATH"]]))
        proc = subprocess.run(
            [sys.executable, "-m", "sheafplectic", "-m",
             "manifests/discrete_f3.json", "check", "--suite",
             "annihilator-theorem"],
            capture_output=True, text=True, cwd=REPO, env=env)
        assert proc.returncode == 4
        assert "Traceback" not in proc.stderr
        assert [json.loads(line) for line in
                proc.stdout.splitlines()] == [self.RECORD]


class TestProcessLevel:
    def test_validate_exit_zero(self):
        code, out = run_cli("-m", "manifests/point_rank2.json", "validate")
        assert code == 0
        assert json.loads(out.splitlines()[0])["verdict"] == "pass"

    def test_missing_file_exit_three(self):
        code, out = run_cli("-m", "no-such-file.json", "validate")
        assert code == 3

    def test_invalid_manifest_exit_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, out = run_cli("-m", str(bad), "validate")
        assert code == 3

    def test_usage_exit_two(self):
        code, _ = run_cli("-m", "manifests/point_rank2.json", "frobnicate")
        assert code == 2

    def test_machine_reports_byte_identical(self):
        jobs = [
            ("manifests/point_rank2.json", ["classify", "--sub", "L"]),
            ("manifests/sierpinski_rank4.json", ["darboux", "--at", "a"]),
            ("manifests/discrete_f3.json",
             ["check", "--suite", "annihilator-theorem", "--seed-rng", "7"]),
        ]
        for manifest, cmd in jobs:
            code1, out1 = run_cli("-m", manifest, *cmd)
            code2, out2 = run_cli("-m", manifest, *cmd)
            assert code1 == code2 == 0
            assert out1 == out2
            for line in out1.splitlines():
                json.loads(line)

    @pytest.mark.parametrize("suite", ["annihilator-theorem", "transpose"])
    def test_degenerate_form_is_skipped_not_failed(self, tmp_path, suite):
        # rank 3 with a form of rank 2: a valid manifest, not a symplectic one
        j = [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]]
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({
            "format": "sheafplectic-manifest/1",
            "space": {"points": ["a", "b"],
                      "opens": [[], ["a"], ["b"], ["a", "b"]]},
            "field": "Q", "rank": 3, "form": {"a": j, "b": j}}))
        code, out = run_cli("-m", str(path), "check", "--suite", suite,
                            "--seed-rng", "1")
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert {"command": "check", "suite": suite,
                "check": suite + "/form/skipped", "verdict": "pass",
                "detail": "form is degenerate at point a"} in records
        assert records[-1]["verdict"] == "pass"

    def test_human_rendering(self):
        code, out = run_cli("-m", "manifests/point_rank2.json", "--human",
                            "validate")
        assert code == 0
        assert out.startswith("[pass] validate")
        assert "elapsed" in out
