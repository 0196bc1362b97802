"""Ceilings on the eliminations that the subspace-heavy suites take.

Every subspace question (coordinates, membership, intersection, kernel,
injectivity) is asked in at most one elimination, never once per vector,
and every whole-sheaf question once per draw, never once per point.
These tests count the calls to ``exactalg.rref`` (and, for the transpose
suite, to ``exactalg.inverse``), in process, made by ``check --suite SUITE
--seed-rng 7`` on each shipped manifest, and hold each count at or below
the count reached when that became true.  A loop of one elimination per
vector, or one whole-sheaf rebuild per point, coming back breaks a
ceiling.  A change that lowers a count should lower its ceiling too.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from sheafplectic import cli, exactalg, pairing, sheaf, suites, symplectic  # noqa: F401

REPO = Path(__file__).resolve().parents[1]

CEILINGS = {
    ("point_rank2", "annihilator-theorem"): 367,
    ("point_rank2", "completeness"): 97,
    ("point_rank2", "darboux"): 29,
    ("point_rank2", "hom-exactness"): 42,
    ("point_rank2", "reduction"): 62,
    ("point_rank2", "transpose"): 50,
    ("discrete_f3", "annihilator-theorem"): 513,
    ("discrete_f3", "completeness"): 182,
    ("discrete_f3", "darboux"): 62,
    ("discrete_f3", "hom-exactness"): 72,
    ("discrete_f3", "reduction"): 114,
    ("discrete_f3", "transpose"): 98,
    ("sierpinski_rank4", "annihilator-theorem"): 488,
    ("sierpinski_rank4", "completeness"): 156,
    ("sierpinski_rank4", "darboux"): 58,
    ("sierpinski_rank4", "hom-exactness"): 84,
    ("sierpinski_rank4", "reduction"): 124,
    ("sierpinski_rank4", "transpose"): 88,
}

INVERSE_CEILINGS = {
    ("point_rank2", "transpose"): 25,
    ("discrete_f3", "transpose"): 40,
    ("sierpinski_rank4", "transpose"): 40,
}


def count_eliminations(monkeypatch, manifest, suite, kernel="rref"):
    """Exit code and number of calls to the ``exactalg`` function named
    ``kernel`` made by one in-process check."""
    real = getattr(exactalg, kernel)
    calls = []

    def counting(*args):
        calls.append(None)
        return real(*args)

    # every module that imported the kernel holds its own binding
    for name, module in list(sys.modules.items()):
        if name.startswith("sheafplectic") and getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["-m", str(REPO / "manifests" / (manifest + ".json")),
                         "check", "--suite", suite, "--seed-rng", "7"])
    return code, len(calls)


@pytest.mark.parametrize("manifest,suite", sorted(CEILINGS),
                         ids=["%s %s" % key for key in sorted(CEILINGS)])
def test_suite_stays_within_its_elimination_ceiling(monkeypatch, manifest, suite):
    code, calls = count_eliminations(monkeypatch, manifest, suite)
    assert code == 0
    assert 0 < calls <= CEILINGS[(manifest, suite)]


@pytest.mark.parametrize("manifest,suite", sorted(INVERSE_CEILINGS),
                         ids=["%s %s" % key for key in sorted(INVERSE_CEILINGS)])
def test_suite_stays_within_its_inverse_ceiling(monkeypatch, manifest, suite):
    code, calls = count_eliminations(monkeypatch, manifest, suite, "inverse")
    assert code == 0
    assert 0 < calls <= INVERSE_CEILINGS[(manifest, suite)]
