"""Ceilings on the eliminations that the subspace-heavy suites take.

Every subspace question (coordinates, membership, intersection, kernel,
injectivity) is asked in at most one elimination, never once per vector,
and every whole-sheaf question once per draw, never once per point.
These tests count the calls to ``exactalg.rref`` (and, for the transpose
suite, to ``exactalg.inverse``), in process, made by ``check --suite SUITE
--seed-rng 7`` on each shipped manifest, and hold each count at or below
the count reached when that became true.  A loop of one elimination per
vector, or one whole-sheaf rebuild per point, coming back breaks a
ceiling.  A change that lowers a count should lower its ceiling too.  A
quotient reads its projection off canonical bases, so ``reduce`` and the
suites built on quotients alone invert no matrix.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from sheafplectic import (  # noqa: F401
    cli, exactalg, modsheaf, pairing, pairing_suites, sheaf, sheaf_suites,
    suites, symplectic, symplectic_suites)

REPO = Path(__file__).resolve().parents[1]

CEILINGS = {
    ("point_rank2", "annihilator-theorem"): 352,
    ("point_rank2", "completeness"): 97,
    ("point_rank2", "darboux"): 23,
    ("point_rank2", "hom-exactness"): 35,
    ("point_rank2", "reduction"): 50,
    ("point_rank2", "transpose"): 50,
    ("discrete_f3", "annihilator-theorem"): 493,
    ("discrete_f3", "completeness"): 182,
    ("discrete_f3", "darboux"): 48,
    ("discrete_f3", "hom-exactness"): 60,
    ("discrete_f3", "reduction"): 92,
    ("discrete_f3", "transpose"): 98,
    ("sierpinski_rank4", "annihilator-theorem"): 468,
    ("sierpinski_rank4", "completeness"): 156,
    ("sierpinski_rank4", "darboux"): 44,
    ("sierpinski_rank4", "hom-exactness"): 70,
    ("sierpinski_rank4", "reduction"): 100,
    ("sierpinski_rank4", "transpose"): 88,
}

INVERSE_CEILINGS = {
    ("point_rank2", "transpose"): 25,
    ("discrete_f3", "transpose"): 40,
    ("sierpinski_rank4", "transpose"): 40,
}


def count_eliminations(monkeypatch, manifest, suite, kernel="rref",
                       command=None):
    """Exit code and number of calls to the ``exactalg`` function named
    ``kernel`` made by one in-process check, or by ``command`` when given."""
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
                         *(command or ["check", "--suite", suite,
                                       "--seed-rng", "7"])])
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


MANIFEST_SUBS = {"point_rank2": ["L", "zero"], "discrete_f3": ["G"],
                 "sierpinski_rank4": ["F", "L"]}
NO_INVERSE = [(m, s, None) for m in MANIFEST_SUBS
              for s in ("hom-exactness", "reduction")] + \
    [(m, None, ["reduce", "--sub", sub]) for m, subs in MANIFEST_SUBS.items()
     for sub in subs]


@pytest.mark.parametrize("manifest,suite,command", NO_INVERSE,
                         ids=["%s %s" % (m, s or " ".join(c))
                              for m, s, c in NO_INVERSE])
def test_quotients_invert_no_matrix(monkeypatch, manifest, suite, command):
    _, calls = count_eliminations(monkeypatch, manifest, suite, "inverse",
                                  command)
    assert calls == 0
