"""Machine reports compared byte for byte with reports recorded earlier.

``golden_reports.json`` holds the exit code and the exact stdout of every
call below.  The calls cover every command and option on the three shipped
manifests and every suite on each of them at one ``--seed-rng``, so a
refactor that changes any canonical basis or any record shows here.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from sheafplectic.cli import main

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"

SUITES = ("completeness", "annihilator-theorem", "transpose", "hom-exactness",
          "darboux", "reduction")
SHIPPED = ("point_rank2", "discrete_f3", "sierpinski_rank4")

CALLS = [
    ("point_rank2", ["validate"]),
    ("point_rank2", ["annihilator", "--pairing", "dot", "--sub", "L"]),
    ("point_rank2", ["annihilator", "--pairing", "omega", "--sub", "zero"]),
    ("point_rank2", ["classify", "--sub", "L"]),
    ("point_rank2", ["darboux", "--at", "p0", "--seed", "t"]),
    ("point_rank2", ["darboux", "--at", "p0", "--seed", "S"]),
    ("point_rank2", ["reduce", "--sub", "L"]),
    ("point_rank2", ["reduce", "--sub", "zero"]),
    ("discrete_f3", ["validate"]),
    ("discrete_f3", ["annihilator", "--pairing", "dot", "--sub", "G"]),
    ("discrete_f3", ["darboux", "--at", "a"]),
    ("discrete_f3", ["darboux", "--at", "b", "--abs-normalize"]),
    ("discrete_f3", ["reduce", "--sub", "G"]),
    ("sierpinski_rank4", ["validate"]),
    ("sierpinski_rank4", ["annihilator", "--pairing", "phi", "--sub", "F"]),
    ("sierpinski_rank4", ["classify", "--sub", "F"]),
    ("sierpinski_rank4", ["classify", "--sub", "L"]),
    ("sierpinski_rank4", ["darboux", "--at", "a", "--abs-normalize"]),
    ("sierpinski_rank4", ["darboux", "--at", "b", "--seed", "t"]),
    ("sierpinski_rank4", ["reduce", "--sub", "F"]),
] + [(m, ["check", "--suite", s, "--seed-rng", "7"])
     for m in SHIPPED for s in SUITES]


def label(manifest, argv):
    return " ".join([manifest] + argv)


def machine_report(manifest, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["-m", str(REPO / "manifests" / (manifest + ".json"))]
                    + argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("manifest,argv", CALLS,
                         ids=[label(m, a) for m, a in CALLS])
def test_machine_report_matches_recording(manifest, argv):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert machine_report(manifest, argv) == golden[label(manifest, argv)]
