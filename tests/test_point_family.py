"""Every per-point holder checks its map the same way: each point of the
space exactly once, and each value with the shape its point needs."""

import json

import pytest

from sheafplectic.cli import parse_manifest
from sheafplectic.exactalg import Matrix, QQ, Subspace
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    PointFamily,
    QuotientSheaf,
    SubmoduleSheaf,
    full_submodule,
    quotient,
    zero_submodule,
)
from sheafplectic.pairing import PairingSheaf
from sheafplectic.sheaf import make_section
from sheafplectic.space import sierpinski
from sheafplectic.symplectic import (
    FlatResult,
    ReducedModule,
    SymplecticModule,
    TwoFormSheaf,
    flat,
    reduce,
    standard_block,
    standard_form,
)

SP = sierpinski()                      # points "a" and "b"
FULL = SP.index_of(("a", "b"))
E = FreeModuleSheaf(SP, QQ, 2)
I2, I3 = Matrix.identity(QQ, 2), Matrix.identity(QQ, 3)
J2, J4 = standard_block(QQ, 2, 1), standard_block(QQ, 4, 2)
QUOT = quotient(zero_submodule(E))
RED = reduce(SymplecticModule(E, standard_form(E)), full_submodule(E))
FLAT = flat(standard_form(E))
# a quotient submodule: the zero sub-sheaf of the reduced module
QSUB = SubmoduleSheaf(RED.quotient, {x: Subspace.zero(QQ, 2) for x in SP.points})


def manifest_pairing(gram):
    return parse_manifest(json.dumps({
        "format": "sheafplectic-manifest/1",
        "space": {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]]},
        "field": "Q", "rank": 2, "pairings": {"dot": gram}}))


# holder: (value that fits every point, value of the wrong shape, builder)
HOLDERS = {
    "SubmoduleSheaf": (Subspace.full(QQ, 2), Subspace.full(QQ, 3),
                       lambda v: SubmoduleSheaf(E, v)),
    "MorphismSheaf": (I2, I3, lambda v: MorphismSheaf(E, E, v)),
    "PairingSheaf": (I2, I3, lambda v: PairingSheaf(E, E, v)),
    "TwoFormSheaf": (J2, J4, lambda v: TwoFormSheaf(E, v)),
    "QuotientSheaf.complements": (
        QUOT.complements["a"], Subspace.full(QQ, 3),
        lambda v: QuotientSheaf(E, QUOT.by, None, v, QUOT.proj)),
    "QuotientSheaf.proj": (
        QUOT.proj["a"], I3,
        lambda v: QuotientSheaf(E, QUOT.by, None, QUOT.complements, v)),
    "ReducedModule.reduced_form": (
        J2, J4, lambda v: ReducedModule(RED.source, RED.by, RED.perp,
                                        RED.quotient, v)),
    "FlatResult.iso": (
        I2, I3, lambda v: FlatResult(FLAT.map, FLAT.image, FLAT.kernel,
                                     FLAT.quotient, v)),
    # a sub-sheaf of a quotient takes the quotient's stalk dimensions
    "QuotientSubmodule": (Subspace.zero(QQ, 2), Subspace.zero(QQ, 3),
                          lambda v: SubmoduleSheaf(RED.quotient, v)),
    "make_section": ((QQ.one, QQ.zero), (QQ.one,) * 3,
                     lambda v: make_section(E, FULL, v)),
    "make_section on a QuotientSubmodule": (
        (), (QQ.one,), lambda v: make_section(QSUB, FULL, v)),
    "parse_manifest": ([["1", "0"], ["0", "1"]], [["1"] * 3] * 3,
                       manifest_pairing),
}

CASES = {
    "missing": (lambda good, bad: {"a": good}, "missing point 'b'"),
    "extra": (lambda good, bad: {"a": good, "b": good, "z": good},
              "unknown point 'z'"),
    "shape": (lambda good, bad: {"a": good, "b": bad}, "expected"),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("holder", sorted(HOLDERS))
def test_holder_rejects_a_bad_point_map(holder, case):
    good, bad, build = HOLDERS[holder]
    build({"a": good, "b": good})
    values, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        build(values(good, bad))


def test_point_family_is_read_only_and_maps_pointwise():
    fam = PointFamily(SP.points, {"b": 2, "a": 1})
    assert list(fam) == ["a", "b"]
    assert fam.map(lambda x, v: x * v) == {"a": "a", "b": "bb"}
    for mutate in (lambda: fam.__setitem__("a", 0), lambda: fam.pop("a"),
                   lambda: fam.update(a=0), fam.clear):
        with pytest.raises(TypeError):
            mutate()
    assert fam == {"a": 1, "b": 2}
