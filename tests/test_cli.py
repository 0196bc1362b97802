import importlib
import json
import os
import random
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sheafplectic import cli, pairing, pairing_suites
from sheafplectic.cli import (
    MAX_MODULUS,
    Manifest,
    ParseError,
    SUITES,
    UnknownName,
    ValidationError,
    emit_manifest,
    main,
    parse_args,
    parse_manifest,
    run_command,
)
from sheafplectic.exactalg import QQ
from sheafplectic.modsheaf import MorphismSheaf
from sheafplectic.pairing import Degenerate, NotInvariant

REPO = Path(__file__).resolve().parents[1]
MANIFESTS = REPO / "manifests"
sys.path.insert(0, str(REPO / "tools"))

import parity  # noqa: E402

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

    @pytest.mark.parametrize("modulus,message", [
        (3.0, "modulus must be an integer"),
        ("3", "modulus must be an integer"),
        (True, "modulus must be an integer"),
        (2 ** 31 + 11, "modulus 2147483659 exceeds the cap of 2147483647")])
    def test_bad_modulus_is_a_validation_error(self, modulus, message):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": modulus}
        del doc["form"]
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(doc))
        assert (exc.value.path, exc.value.message) == ("field.Fp", message)

    def test_modulus_one_exits_three(self, tmp_path, capsys):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": 1}
        del doc["form"]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert main(["-m", str(path), "validate"]) == 3
        rec = json.loads(capsys.readouterr().out)
        assert rec["error"] == "ValidationError"
        assert rec["witness"] == \
            "invalid manifest at field.Fp: modulus 1 is not prime"

    @pytest.mark.parametrize("literal", ["3\n", "\u0661", "1/\u0662"],
                             ids=["final-newline", "arabic-indic-one",
                                  "arabic-indic-denominator"])
    def test_rational_literal_is_ascii_digits_and_the_whole_string(
            self, tmp_path, capsys, literal):
        doc = json.loads(MINIMAL)
        doc["form"]["p0"][0][1] = literal
        path = tmp_path / "literal.json"
        path.write_text(json.dumps(doc))
        assert main(["-m", str(path), "validate"]) == 3
        rec = json.loads(capsys.readouterr().out)
        assert (rec["error"], rec["witness"]) == (
            "ParseError", "parse error at 0:0: form.p0[0][1]: "
            "bad rational literal: %r" % literal)

    def test_every_shipped_and_parity_manifest_literal_parses_as_a_fraction(
            self, tmp_path):
        # the parity calls' valid manifests: the benchmark's and a few
        # generated
        paths = {Path(m) for _, m, _ in parity.all_calls(str(tmp_path))
                 if Path(m).stem not in parity.MALFORMED}
        paths.update(MANIFESTS.glob("*.json"))
        literals = set()

        def walk(value):
            if isinstance(value, str):
                literals.add(value)
            elif isinstance(value, (list, dict)):
                for item in (value.values() if isinstance(value, dict)
                             else value):
                    walk(item)

        for path in paths:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc["field"] == "Q":
                for section in ("form", "pairings", "submodules", "morphisms"):
                    walk(doc.get(section))
        assert len(literals) > 50
        assert [s for s in literals if QQ.parse(s) != Fraction(s)] == []

    @pytest.mark.parametrize("value", [3, None])
    @pytest.mark.parametrize("key,what", [
        ("pairings", "gram families"), ("submodules", "stalk bases"),
        ("morphisms", "matrix families")])
    def test_named_table_must_be_a_map(self, key, what, value):
        doc = json.loads(MINIMAL)
        doc[key] = value
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(doc))
        assert (exc.value.path, exc.value.message) == \
            (key, "must map names to " + what)

    def test_modulus_cap_is_accepted(self):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": MAX_MODULUS}
        del doc["form"]
        assert parse_manifest(json.dumps(doc)).field.p == 2 ** 31 - 1

    @staticmethod
    def chain_manifest(n):
        """MINIMAL on the chain topology of ``n`` points."""
        doc = json.loads(MINIMAL)
        points = ["p%d" % i for i in range(n)]
        doc["space"] = {"points": points,
                        "opens": [points[:k] for k in range(n + 1)]}
        doc["form"] = {x: [["0", "1"], ["-1", "0"]] for x in points}
        return json.dumps(doc)

    def test_point_cap(self):
        with pytest.raises(ValidationError) as exc:
            parse_manifest(self.chain_manifest(13))
        assert exc.value.path == "space.points"
        assert exc.value.message == "13 points exceed the cap of 12"

    def test_point_cap_is_accepted(self):
        assert len(parse_manifest(self.chain_manifest(12)).space.points) == 12

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
        return parse_args(argv)

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


class TestLongAnswers:
    def test_answers_past_the_digit_limit_are_written_in_full(self, capsys,
                                                              tmp_path):
        # 3,000-digit literals give answers with integers past the
        # interpreter's 4,300-digit limit on str(int)
        rng = random.Random(42)

        def lit():
            return "%d" % rng.randrange(10 ** 2999, 10 ** 3000)

        upper = {(i, j): lit() for i in range(4) for j in range(i + 1, 4)}
        form = [["0" if i == j else upper[i, j] if i < j else "-" + upper[j, i]
                 for j in range(4)] for i in range(4)]
        path = tmp_path / "long.json"
        path.write_text(json.dumps(dict(
            json.loads(MINIMAL), rank=4, form={"p0": form},
            pairings={"phi": {"p0": [[lit() for _ in range(4)]
                                    for _ in range(4)]}},
            submodules={"F": {"p0": [[lit() for _ in range(4)]
                                    for _ in range(3)]}})))
        for argv in (["annihilator", "--pairing", "phi", "--sub", "F"],
                     ["darboux", "--at", "p0"], ["reduce", "--sub", "F"]):
            code = main(["-m", str(path), *argv])
            out = capsys.readouterr().out
            assert code == 0, out
            assert max(map(len, re.findall("[0-9]+", out))) > 4300


class TestSuiteNames:
    def test_cli_names_every_suite(self):
        # the table names, in order, the module of each ``suite_*`` function
        found = {name[len("suite_"):].replace("_", "-"): module
                 for module in set(SUITES.values())
                 for name in vars(importlib.import_module(
                     "sheafplectic." + module))
                 if name.startswith("suite_")}
        assert found == SUITES and list(SUITES) == sorted(SUITES)

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-m", str(MANIFESTS / "point_rank2.json"), "check",
                  "--suite", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: sheafplectic")
        assert "invalid choice: 'nope'" in err


POINT = str(MANIFESTS / "point_rank2.json")
CHOOSE_COMMAND = ("(choose from 'validate', 'annihilator', 'classify', "
                  "'darboux', 'reduce', 'check')")


class TestGrammar:
    """The command line that argparse read before, read from one table:
    each accepted line gives the namespace argparse gave, and each refused
    one argparse's exit code and message."""

    ACCEPTED = [
        # the README's invocations and the argv shapes of the benchmark
        (["-m", "manifests/point_rank2.json", "validate"],
         dict(manifest="manifests/point_rank2.json", human=False,
              command="validate")),
        (["-m", "manifests/discrete_f3.json", "annihilator", "--pairing",
          "dot", "--sub", "G"],
         dict(manifest="manifests/discrete_f3.json", human=False,
              command="annihilator", pairing="dot", sub="G")),
        (["-m", "manifests/point_rank2.json", "classify", "--sub", "L"],
         dict(manifest="manifests/point_rank2.json", human=False,
              command="classify", sub="L")),
        (["-m", "manifests/sierpinski_rank4.json", "darboux", "--at", "a"],
         dict(manifest="manifests/sierpinski_rank4.json", human=False,
              command="darboux", at="a", seed=None, abs_normalize=False)),
        (["-m", "manifests/sierpinski_rank4.json", "darboux", "--at", "b",
          "--seed", "t"],
         dict(manifest="manifests/sierpinski_rank4.json", human=False,
              command="darboux", at="b", seed="t", abs_normalize=False)),
        (["-m", "manifests/sierpinski_rank4.json", "darboux", "--at", "a",
          "--abs-normalize"],
         dict(manifest="manifests/sierpinski_rank4.json", human=False,
              command="darboux", at="a", seed=None, abs_normalize=True)),
        (["-m", "manifests/sierpinski_rank4.json", "reduce", "--sub", "F"],
         dict(manifest="manifests/sierpinski_rank4.json", human=False,
              command="reduce", sub="F")),
        (["-m", "manifests/discrete_f3.json", "check", "--suite",
          "annihilator-theorem", "--seed-rng", "7"],
         dict(manifest="manifests/discrete_f3.json", human=False,
              command="check", suite="annihilator-theorem", seed_rng=7)),
        # the main options in any order, long, attached and cut short
        (["--human", "-m", "m.json", "reduce", "--sub", "L"],
         dict(manifest="m.json", human=True, command="reduce", sub="L")),
        (["-m", "m.json", "--human", "reduce", "--sub", "L"],
         dict(manifest="m.json", human=True, command="reduce", sub="L")),
        (["--manifest", "m.json", "validate"],
         dict(manifest="m.json", human=False, command="validate")),
        (["--manifest=m.json", "validate"],
         dict(manifest="m.json", human=False, command="validate")),
        (["-mm.json", "validate"],
         dict(manifest="m.json", human=False, command="validate")),
        (["-m=m.json", "validate"],
         dict(manifest="m.json", human=False, command="validate")),
        (["--man", "m.json", "--hum", "validate"],
         dict(manifest="m.json", human=True, command="validate")),
        (["-m", "-", "validate"],
         dict(manifest="-", human=False, command="validate")),
        # a command's options in any order, attached or cut short
        (["-m", "m.json", "annihilator", "--sub=G", "--pairing=dot"],
         dict(manifest="m.json", human=False, command="annihilator",
              pairing="dot", sub="G")),
        (["-m", "m.json", "annihilator", "--pair", "dot", "--s", "G"],
         dict(manifest="m.json", human=False, command="annihilator",
              pairing="dot", sub="G")),
        (["-m", "m.json", "darboux", "--abs-normalize", "--seed", "t",
          "--at", "b"],
         dict(manifest="m.json", human=False, command="darboux", at="b",
              seed="t", abs_normalize=True)),
        (["-m", "m.json", "darboux", "--abs", "--at=b"],
         dict(manifest="m.json", human=False, command="darboux", at="b",
              seed=None, abs_normalize=True)),
        (["-m", "m.json", "check", "--seed-rng=3", "--suite=transpose"],
         dict(manifest="m.json", human=False, command="check",
              suite="transpose", seed_rng=3)),
        (["-m", "m.json", "check", "--suite", "transpose", "--seed-rng",
          "-5"],
         dict(manifest="m.json", human=False, command="check",
              suite="transpose", seed_rng=-5)),
        # a repeated option: the last one wins
        (["-m", "a.json", "-m", "m.json", "classify", "--sub", "F", "--sub",
          "L"],
         dict(manifest="m.json", human=False, command="classify", sub="L")),
        (["-m", "m.json", "check", "--suite", "darboux", "--seed-rng", "1",
          "--seed-rng", "2"],
         dict(manifest="m.json", human=False, command="check",
              suite="darboux", seed_rng=2)),
    ]

    @pytest.mark.parametrize("argv, namespace", ACCEPTED,
                             ids=[" ".join(a) for a, _ in ACCEPTED])
    def test_accepted(self, argv, namespace):
        assert vars(parse_args(argv)) == namespace

    REFUSED = [
        (["-m", POINT, "frobnicate"],
         "argument command: invalid choice: 'frobnicate' " + CHOOSE_COMMAND),
        (["-m", POINT, "--", "validate"],
         "argument command: invalid choice: '--' " + CHOOSE_COMMAND),
        (["-m", POINT, "validate", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["-m", POINT, "reduce", "--sub", "L", "extra"],
         "unrecognized arguments: extra"),
        (["-m", POINT, "validate", "--", "-h"],
         "unrecognized arguments: -- -h"),
        (["-m", POINT, "validate", "-m", POINT],
         "unrecognized arguments: -m " + POINT),
        (["-m", POINT, "annihilator", "--pairing", "dot"],
         "the following arguments are required: --sub"),
        (["validate", "-m", POINT],
         "the following arguments are required: --manifest/-m"),
        ([], "the following arguments are required: --manifest/-m, command"),
        (["-m"], "argument --manifest/-m: expected one argument"),
        (["-m", POINT, "darboux", "--at"],
         "argument --at: expected one argument"),
        (["-m", POINT, "darboux", "--at", "--seed", "t"],
         "argument --at: expected one argument"),
        (["-m", POINT, "darboux", "--a", "p0"],
         "ambiguous option: --a could match --at, --abs-normalize"),
        (["--h", "-m", POINT, "validate"],
         "ambiguous option: --h could match --help, --human"),
        (["-m", POINT, "--human=yes", "validate"],
         "argument --human: ignored explicit argument 'yes'"),
        (["-m", POINT, "check", "--suite", "transpose", "--seed-rng", "x"],
         "argument --seed-rng: invalid int value: 'x'"),
        (["-m", POINT, "check", "--suite", "nope"],
         "argument --suite: invalid choice: 'nope' (choose from "
         "'annihilator-theorem', 'completeness', 'darboux', "
         "'hom-exactness', 'reduction', 'transpose')"),
    ]

    @pytest.mark.parametrize("argv, message", REFUSED,
                             ids=[" ".join(a) for a, _ in REFUSED])
    def test_refused(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        usage, error = err.splitlines()
        assert (out, error) == ("", "sheafplectic: error: " + message)
        assert usage.startswith("usage: sheafplectic")

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["-m", POINT, "-h"], ["-h", "-m"],
        ["-m", POINT, "check", "-h"], ["-m", POINT, "darboux", "--he"],
    ])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: sheafplectic") and err == ""
        named = set(re.findall(r"--?[a-z][-a-z]*|[a-z][-a-z]+", out))
        assert {"-h", "-m", *cli.MAIN_OPTIONS, *cli.COMMANDS,
                *SUITES} <= named
        assert all(set(options) <= named
                   for options in cli.COMMANDS.values())


class TestSuiteErrors:
    """A suite reports a mathematical failure as a failing record, and lets
    an internal error (a tripped guard, a bug) escape instead."""

    # the suite calls ``induced_endomorphism``, which builds the induced
    # pairing through ``pairing.induced_pairing``
    HOME = {"induced_pairing": pairing, "induced_endomorphism": pairing_suites}

    @pytest.mark.parametrize("name", ["induced_pairing", "induced_endomorphism"])
    def test_internal_error_escapes(self, monkeypatch, name):
        def broken(*args):
            raise RuntimeError("postcondition tripped")

        monkeypatch.setattr(self.HOME[name], name, broken)
        m = parse_manifest((MANIFESTS / "discrete_f3.json").read_text())
        with pytest.raises(RuntimeError, match="postcondition tripped"):
            pairing_suites.suite_annihilator_theorem(m, random.Random(7))

    @pytest.mark.parametrize("name,part,error", [
        ("induced_endomorphism", "h", NotInvariant("a", ()))])
    def test_mathematical_failure_is_a_failing_record(self, monkeypatch,
                                                      name, part, error):
        def failing(*args):
            raise error

        monkeypatch.setattr(self.HOME[name], name, failing)
        m = parse_manifest((MANIFESTS / "discrete_f3.json").read_text())
        recs = pairing_suites.suite_annihilator_theorem(m, random.Random(7))
        failed = [r["check"] for r in recs if not r["ok"]]
        assert failed and all(c.endswith("/" + part) for c in failed)

    def test_a_degenerate_induced_pairing_escapes(self, monkeypatch):
        # every source pairing is nondegenerate, so induced duality is
        # ``induced_pairing``'s to enforce and the suite keeps no record of it
        def failing(*args):
            raise Degenerate("pairing is degenerate at 'a'")

        monkeypatch.setattr(pairing, "induced_pairing", failing)
        m = parse_manifest((MANIFESTS / "discrete_f3.json").read_text())
        with pytest.raises(Degenerate, match="degenerate at 'a'"):
            pairing_suites.suite_annihilator_theorem(m, random.Random(7))


class TestInternalErrors:
    """An exception that is neither an input error nor a mathematical
    failure ends the command with an ``error`` record and exit code 4."""

    RECORD = {"command": "check", "verdict": "error", "error": "RuntimeError",
              "witness": "postcondition tripped"}

    def test_main_reports_error_record(self, monkeypatch, capsys):
        def broken(*args):
            raise RuntimeError("postcondition tripped")

        monkeypatch.setattr(pairing, "induced_pairing", broken)
        code = main(["-m", str(MANIFESTS / "discrete_f3.json"), "check",
                     "--suite", "annihilator-theorem"])
        assert code == 4
        assert [json.loads(line) for line in
                capsys.readouterr().out.splitlines()] == [self.RECORD]

    def test_a_named_outcome_escaping_a_suite_is_an_error(self, monkeypatch,
                                                          capsys):
        # a suite keeps its expected outcomes in skip records, so a
        # ``ValueError`` that escapes one is a fault, not a fail
        def failing(*args):
            raise Degenerate("pairing is degenerate at 'a'")

        monkeypatch.setattr(pairing, "induced_pairing", failing)
        code = main(["-m", str(MANIFESTS / "discrete_f3.json"), "check",
                     "--suite", "annihilator-theorem"])
        assert code == 4
        assert [json.loads(line) for line in
                capsys.readouterr().out.splitlines()] == [dict(
                    self.RECORD, error="Degenerate",
                    witness="pairing is degenerate at 'a'")]

    def test_process_exits_four_without_traceback(self, tmp_path):
        # sitecustomize runs at interpreter start, before the command
        (tmp_path / "sitecustomize.py").write_text(
            "from sheafplectic import pairing\n"
            "def broken(*args):\n"
            "    raise RuntimeError('postcondition tripped')\n"
            "pairing.induced_pairing = broken\n")
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


class TestSuiteFailures:
    def test_transpose_suite_fails_without_transposes(self, monkeypatch, capsys):
        # with the untransposed family in place of the transpose, exactly the
        # checks that tell a map from its transpose fail
        monkeypatch.setattr(MorphismSheaf, "transpose", lambda m: m)
        code = main(["-m", str(MANIFESTS / "discrete_f3.json"), "check",
                     "--suite", "transpose", "--seed-rng", "7"])
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [r["check"] for r in records if r.get("verdict") == "fail"
                and "check" in r] == ["transpose/contravariance",
                                      "transpose/kernel-is-image-annihilator"]
        assert records[-1]["verdict"] == "fail"


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

    def test_float_modulus_exit_three(self, tmp_path):
        doc = json.loads(MINIMAL)
        doc["field"] = {"Fp": 3.0}
        del doc["form"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run_cli("-m", str(bad), "validate")
        assert code == 3
        assert json.loads(out)["error"] == "ValidationError"

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

    def test_space_without_points_passes_every_suite(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({
            "format": "sheafplectic-manifest/1",
            "space": {"points": [], "opens": [[]]}, "field": "Q", "rank": 2}))
        for suite in SUITES:
            code, out = run_cli("-m", str(path), "check", "--suite", suite,
                                "--seed-rng", "1")
            records = [json.loads(line) for line in out.splitlines()]
            assert code == 0, (suite, out)
            assert records and not any("error" in r for r in records)
            if suite == "darboux":
                assert records[0]["check"] == "darboux/skipped"
                assert records[0]["detail"] == "no points"

    def test_human_rendering(self):
        code, out = run_cli("-m", "manifests/point_rank2.json", "--human",
                            "validate")
        assert code == 0
        assert out.startswith("[pass] validate")
        assert "elapsed" in out


def _edit(key, value):
    """MINIMAL with ``doc[key] = value``, or with the nested key a.b set."""
    def edit(doc):
        *outer, last = key.split(".")
        target = doc
        for k in outer:
            target = target[k]
        target[last] = value
        return doc
    return edit


class TestValidatorPaths:
    """Each way the validator refuses a manifest, called in process: the
    error's class, its path and its message."""

    @pytest.mark.parametrize("edit, path, message", [
        (lambda doc: [], "$", "top level must be an object"),
        (_edit("space", {"points": ["p0"]}), "space",
         "needs exactly 'points' and 'opens'"),
        (_edit("space.points", [1]), "space.points", "must be a list of names"),
        (_edit("space.opens", "p0"), "space.opens",
         "must be a list of point lists"),
        (_edit("space.opens", [[], ["q"]]), "space",
         "open set names unknown point 'q'"),
        (_edit("space.points", ["p0", "p0"]), "space", "duplicate point names"),
        (_edit("space", {"points": list("abcdefg"), "opens": [
            [x for i, x in enumerate("abcdefg") if k >> i & 1]
            for k in range(128)]}), "space.opens",
         "128 opens exceed the cap of 64"),
        (_edit("field", "R"), "field", 'must be "Q" or {"Fp": prime}'),
        (_edit("rank", -1), "rank", "must be a non-negative integer"),
        (_edit("form", []), "form", "must map point names to matrices"),
        (_edit("form.p0", "0"), "form.p0", "matrix must be a list of rows"),
        (_edit("form.p0", [["0"], ["-1", "0"]]), "form.p0[0]",
         "expected 2 entries, got 1"),
        (_edit("submodules", {"L": {"p0": "1"}}), "submodules.L.p0",
         "must be a list of basis rows"),
        (_edit("morphisms", {"S": {"p0": [["1", "0"]], "p1": [["1", "0"],
                                                              ["0", "1"]]}}),
         "morphisms.S.p1", "row count differs between points"),
        (_edit("space.opens", [[], ["p0"], [["p0"]]]), "space.opens",
         "must be a list of point lists"),
        (_edit("space.opens", [[], ["p0"], [{"x": 1}]]), "space.opens",
         "must be a list of point lists"),
        (_edit("space.opens", [[], ["p0", 1, None]]), "space.opens",
         "must be a list of point lists"),
    ], ids=["top-level", "space-keys", "points", "opens", "unknown-point",
            "duplicate-point", "open-cap", "field", "rank", "point-map",
            "rows", "row-length", "stalk", "morphism-height",
            "opens-list-member", "opens-map-member", "opens-non-string"])
    def test_refused(self, edit, path, message):
        doc = json.loads(MINIMAL)
        if path.startswith("morphisms"):
            doc["space"] = {"points": ["p0", "p1"],
                            "opens": [[], ["p0"], ["p1"], ["p0", "p1"]]}
            del doc["form"]
        with pytest.raises(ValidationError) as exc:
            parse_manifest(json.dumps(edit(doc)))
        assert type(exc.value) is ValidationError
        assert (exc.value.path, exc.value.message) == (path, message)


class TestInProcess:
    """The command line's paths, run through ``main`` in this process."""

    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("argv, name", [
        (["classify", "--sub", "L"], "form"),
        (["darboux", "--at", "q"], "q"),
    ], ids=["no-form", "unknown-point"])
    def test_unknown_name_is_a_failing_record(self, capsys, tmp_path, argv,
                                              name):
        doc = json.loads(MINIMAL)
        if name == "form":
            del doc["form"]
        doc["submodules"] = {"L": {"p0": [["1", "0"]]}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, out = self.run(capsys, "-m", str(path), *argv)
        assert code == 1
        assert json.loads(out) == {"command": argv[0], "verdict": "fail",
                                   "error": "UnknownName",
                                   "witness": "unknown name: " + name}

    def test_abs_normalize_looks_only_at_the_pivots_of_kept_points(
            self, capsys, tmp_path):
        # both pivots at a are positive, so the flag changes nothing there,
        # although b's first pivot is negative; at b the flag refuses
        path = tmp_path / "m.json"
        path.write_text(json.dumps(parity.NEGATIVE_PIVOT))
        code, out = self.run(capsys, "-m", str(path), "darboux", "--at", "a")
        assert (code, json.loads(out)["neighborhood"]) == (0, ["a"])
        assert self.run(capsys, "-m", str(path), "darboux", "--at", "a",
                        "--abs-normalize") == (code, out)
        code, out = self.run(capsys, "-m", str(path), "darboux", "--at", "b",
                             "--abs-normalize")
        assert code == 1
        assert json.loads(out) == {
            "command": "darboux", "verdict": "fail", "error": "ValueError",
            "witness": "absolute-value normalization only reconstructs "
                       "positive-pivot instances"}

    def test_unreadable_manifest_is_an_input_error(self, capsys, tmp_path):
        code, out = self.run(capsys, "-m", str(tmp_path / "missing.json"),
                             "validate")
        assert code == 3
        rec = json.loads(out)
        assert (rec["command"], rec["verdict"], rec["error"]) == \
            ("validate", "fail", "InputError")
        assert "missing.json" in rec["witness"]

    def test_human_rendering(self, capsys):
        code, out = self.run(capsys, "-m", str(MANIFESTS / "point_rank2.json"),
                             "--human", "reduce", "--sub", "L")
        head, elapsed = out.splitlines()
        assert code == 0
        assert head == ('[pass] reduce {"sub": "L", "reduced_dims": {"p0": 0}, '
                        '"reduced_form": {"p0": []}}')
        assert elapsed.startswith("elapsed: ") and elapsed.endswith("s")

    def test_module_entry_point(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [
            "sheafplectic", "-m", str(MANIFESTS / "point_rank2.json"),
            "validate"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("sheafplectic", run_name="__main__")
        assert exc.value.code == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"


CLOSED_RECORD = {"command": "validate", "verdict": "error",
                 "error": "BrokenPipeError", "witness": "[Errno 32] Broken pipe"}


class TestClosedStdout:
    """When the reader of stdout has gone, the command reports an internal
    error on stderr, exit code 4, and prints no traceback."""

    def test_in_process(self, capsys, monkeypatch, tmp_path):
        class Closed:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as handle:
            monkeypatch.setattr(sys, "stdout", Closed(handle.fileno()))
            code = main(["-m", str(MANIFESTS / "point_rank2.json"), "validate"])
        assert code == 4
        assert json.loads(capsys.readouterr().err) == CLOSED_RECORD

    def test_process(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sheafplectic", "-m",
             "manifests/point_rank2.json", "validate"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO,
            env=CLI_ENV, text=True)
        # the child is still starting its interpreter: it writes after this
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 4
        assert "Traceback" not in err
        assert [json.loads(line) for line in err.splitlines()] == [CLOSED_RECORD]


def _json_paths(node, path=()):
    """Every path into a JSON document, the root's included."""
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _replaced_text(doc, path, value) -> str:
    """The JSON text of ``doc`` with ``value`` at ``path``; ``doc`` is
    restored before returning."""
    if not path:
        return json.dumps(value)
    node = doc
    for key in path[:-1]:
        node = node[key]
    kept, node[path[-1]] = node[path[-1]], value
    try:
        return json.dumps(doc)
    finally:
        node[path[-1]] = kept


class TestMalformedInput:
    """However malformed a manifest is, ``validate`` refuses it with exit 3,
    or accepts it with exit 0, in one JSON line: never an internal error.
    The byte-level cases are ``parity.MALFORMED``'s."""

    def validate(self, capsys, path):
        code = main(["-m", str(path), "validate"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        return code, json.loads(lines[0])

    @pytest.mark.parametrize("name, error, witness", [
        ("utf16", "InputError",
         "'utf-8' codec can't decode byte 0xff in position 0"),
        ("deep", "ParseError",
         "parse error at 0:0: maximum recursion depth exceeded"),
        ("long-integer", "ParseError",
         "parse error at 0:0: integer literal exceeds the limit of 4300 "
         "digits"),
        ("opens-members", "ValidationError",
         "invalid manifest at space.opens: must be a list of point lists"),
    ], ids=["utf16", "deep", "long-integer", "opens-members"])
    def test_refused_with_one_record(self, capsys, tmp_path, name, error,
                                     witness):
        path = tmp_path / "m.json"
        path.write_bytes(parity.MALFORMED[name])
        code, rec = self.validate(capsys, path)
        assert code == 3
        assert (rec["command"], rec["verdict"], rec["error"]) == \
            ("validate", "fail", error)
        assert rec["witness"].startswith(witness)

    def test_a_long_rational_literal_has_the_same_witness(self, capsys,
                                                          tmp_path):
        # a string literal past the digit limit, refused in the words of
        # the JSON integer case rather than the interpreter's own
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(
            parity.ZERO_POINT, space={"points": ["p"], "opens": [[], ["p"]]},
            rank=1, pairings={"one": {"p": [["1/" + "9" * 5000]]}})))
        code, rec = self.validate(capsys, path)
        assert code == 3
        assert (rec["error"], rec["witness"]) == \
            ("ParseError", "parse error at 0:0: pairings.one.p[0][0]: "
             "integer literal exceeds the limit of 4300 digits")

    def test_a_utf8_byte_order_mark_stays_refused(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8"))
        code, rec = self.validate(capsys, path)
        assert code == 3
        assert (rec["error"], rec["witness"]) == \
            ("ParseError", "parse error at 1:1: Unexpected UTF-8 BOM "
             "(decode using utf-8-sig)")

    def test_no_mutant_reaches_an_internal_error(self, capsys, tmp_path):
        # each value at each path of each shipped manifest; json cannot
        # write an int past 4,300 digits, so that one goes in as text
        rng = random.Random(20)
        digits = str(rng.randint(1, 9)) + "".join(
            rng.choice("0123456789") for _ in range(4999))
        path = tmp_path / "m.json"
        for shipped in sorted(MANIFESTS.glob("*.json")):
            doc = json.loads(shipped.read_text(encoding="utf-8"))
            for at in _json_paths(doc):
                nested = rng.choice(["p0", 1, None])
                for _ in range(rng.randint(2, 6)):
                    nested = [nested]
                for value in (None, [], {}, [[]], "x", nested, "<digits>"):
                    text = _replaced_text(doc, at, value)
                    path.write_text(text.replace('"<digits>"', digits),
                                    encoding="utf-8")
                    code, rec = self.validate(capsys, path)
                    assert code in (0, 3), (shipped.name, at, value, rec)
