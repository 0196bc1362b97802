"""The value semantics of the package's record classes.

Reprs reach error messages, equality decides subspace and stalk
comparisons, and frozen records are dictionary keys, so these are pinned:
the repr format, equality within one class only, the hash of the frozen
records, that their fields cannot be assigned or deleted, and the defaults
of a mutable record.
"""

import copy
from fractions import Fraction

import pytest

from sheafplectic.exactalg import QQ, FpElement, Matrix, PrimeField, \
    RationalField, Subspace
from sheafplectic.modsheaf import FreeModuleSheaf
from sheafplectic.sheaf import Counterexample
from sheafplectic.space import Cover, TopologyReport, sierpinski

F5 = PrimeField(5)
HALF = Fraction(1, 2)


def _records():
    """``(record, an equal record, a different one of the same class, its
    repr, its fields)`` for each frozen record class."""
    space = sierpinski()
    return [
        (FpElement(8, 5), FpElement(3, 5), FpElement(3, 7),
         "FpElement(value=3, p=5)", (3, 5)),
        (RationalField(), QQ, F5, "RationalField()", ()),
        (PrimeField(5), F5, PrimeField(7), "PrimeField(p=5)", (5,)),
        (Matrix(QQ, 1, 2, ((Fraction(1), HALF),)),
         Matrix.from_rows(QQ, [[Fraction(1), HALF]]),
         Matrix(QQ, 1, 2, ((Fraction(1), Fraction(1, 3)),)),
         "Matrix(field=RationalField(), rows=1, cols=2, "
         "entries=((Fraction(1, 1), Fraction(1, 2)),))",
         (QQ, 1, 2, ((Fraction(1), HALF),))),
        (Subspace(F5, 2, ((F5.one, F5.from_int(2)),)),
         Subspace.span(F5, 2, [[F5.from_int(2), F5.from_int(4)]]),
         Subspace(F5, 2, ()),
         "Subspace(field=PrimeField(p=5), ambient_dim=2, "
         "basis=((FpElement(value=1, p=5), FpElement(value=2, p=5)),))",
         (F5, 2, ((F5.one, F5.from_int(2)),))),
        (Cover(2, (1,)), Cover(target=2, members=(1,)), Cover(2, (0, 1)),
         "Cover(target=2, members=(1,))", (2, (1,))),
        (TopologyReport(False, "NotClosedUnderUnion", (1, 2)),
         TopologyReport(ok=False, kind="NotClosedUnderUnion", pair=(1, 2)),
         TopologyReport(True),
         "TopologyReport(ok=False, kind='NotClosedUnderUnion', pair=(1, 2))",
         (False, "NotClosedUnderUnion", (1, 2))),
        (FreeModuleSheaf(space, QQ, 2), FreeModuleSheaf(sierpinski(), QQ, 2),
         FreeModuleSheaf(space, QQ, 3),
         "FreeModuleSheaf(space=FiniteSpace(points=['a', 'b'], opens=3), "
         "field=RationalField(), rank=2)",
         (space, QQ, 2)),
    ]


RECORDS = _records()
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("rec,equal,other,text,fields", RECORDS, ids=IDS)
def test_repr(rec, equal, other, text, fields):
    assert repr(rec) == text
    assert repr(equal) == text


@pytest.mark.parametrize("rec,equal,other,text,fields", RECORDS, ids=IDS)
def test_equality_within_one_class(rec, equal, other, text, fields):
    assert rec == equal and not rec != equal
    assert rec != other and not rec == other
    # the same field values in a tuple or another record class are unequal
    assert rec != fields
    assert all(rec != r[0] for r in RECORDS if r[0] is not rec)


@pytest.mark.parametrize("rec,equal,other,text,fields", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(rec, equal, other, text, fields):
    assert hash(rec) == hash(equal) == hash(fields)
    assert {rec: 1}[equal] == 1


@pytest.mark.parametrize("rec,equal,other,text,fields", RECORDS, ids=IDS)
def test_frozen_fields_cannot_change(rec, equal, other, text, fields):
    name = {Cover: "target", TopologyReport: "ok", FreeModuleSheaf: "rank",
            Matrix: "rows", Subspace: "basis", PrimeField: "p",
            FpElement: "value", RationalField: "name"}[type(rec)]
    with pytest.raises(AttributeError):
        setattr(rec, name, 0)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    if not isinstance(rec, FpElement):  # slots leave no room for it anyway
        with pytest.raises(AttributeError):
            rec.unheard_of = 1
    assert repr(rec) == text


@pytest.mark.parametrize("rec,equal,other,text,fields", RECORDS, ids=IDS)
def test_copies_are_equal(rec, equal, other, text, fields):
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec


def test_fp_element_reduces_and_has_no_dict():
    a = FpElement(-1, 5)
    assert (a.value, a.p) == (4, 5)
    assert not hasattr(a, "__dict__")
    assert FpElement(value=7, p=5) == FpElement(2, 5)


def test_keyword_and_missing_arguments():
    m = Matrix(field=QQ, rows=0, cols=0, entries=())
    assert m == Matrix(QQ, 0, 0, ())
    assert Subspace(ambient_dim=2, basis=(), field=F5) == Subspace.zero(F5, 2)
    with pytest.raises(TypeError):
        Cover(1)
    with pytest.raises(TypeError):
        Cover(1, (), ())
    with pytest.raises(TypeError):
        Cover(1, (), target=2)
    with pytest.raises(TypeError):
        Cover(1, (), depth=2)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(p=4)


def test_mutable_record_defaults_and_hash():
    cover = Cover(3, (1, 2))
    c = Counterexample(3, cover)
    assert (c.section, c.family) == (None, None)
    assert repr(c) == ("Counterexample(open=3, cover=Cover(target=3, "
                       "members=(1, 2)), section=None, family=None)")
    assert c == Counterexample(open=3, cover=cover, section=None)
    assert c != Counterexample(3, cover, family=((),))
    assert c != (3, cover, None, None)
    with pytest.raises(TypeError):
        hash(c)
    c.section = (HALF,)
    assert c.section == (HALF,) and str(c) == "S1 fails over open 3 with cover [1, 2]"
    assert Counterexample.section is None
