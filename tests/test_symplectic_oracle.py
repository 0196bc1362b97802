"""The symplectic constructions against their definitions.

``tools/sweep.py`` compares ``form_perp``, ``classify``, ``reduce`` and
``darboux`` with ``oracle.enum_symplectic``, ``recompute_rank_via_minors``
and ``wedge_sum_matches`` on every world: a topology on at most three
points, F_2 or F_3, rank 2, every nondegenerate alternating coefficient
family and every stalkwise sub-sheaf.  Tier-1 runs the worlds on at most
two points (a few seconds); the oracle's own answers are pinned on one
point by hand.
"""

import sys
from pathlib import Path

from sheafplectic.exactalg import Matrix, PrimeField, Subspace
from sheafplectic.sheaf import FreeModuleSheaf, Section, SubmoduleSheaf, TwoFormSheaf
from sheafplectic.space import FiniteSpace

from oracle import enum_symplectic, wedge_sum_matches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import sweep  # noqa: E402

F3 = PrimeField(3)
ONE_POINT = FiniteSpace(("p",), [(), ("p",)])
E = FreeModuleSheaf(ONE_POINT, F3, 2)
J = TwoFormSheaf(E, {"p": Matrix.from_rows(F3, [[F3.zero, F3.one],
                                                [-F3.one, F3.zero]])})
WHOLE = ONE_POINT.index_of(("p",))


def stalk(*rows):
    return SubmoduleSheaf(E, {"p": Subspace.span(
        F3, 2, [[F3.from_int(a) for a in r] for r in rows])})


def test_every_topology_on_up_to_three_points_is_enumerated():
    assert [len(list(sweep.topologies(n))) for n in range(4)] == [1, 1, 4, 29]


def test_the_worlds_on_at_most_two_points_agree_with_the_oracle():
    lines = []
    worlds, found = sweep.sweep(2, out=lines.append)
    # F_2: 1 + 5 + 4 * 5**2 worlds; F_3: 1 + 6 * 2 + 4 * 6**2 * 2**2
    assert worlds == 106 + 589
    assert found == lines == []


def test_the_oracle_reads_the_classes_off_their_definitions():
    zero = enum_symplectic(J, stalk(), WHOLE)
    assert (zero.isotropic, zero.coisotropic, zero.symplectic,
            zero.lagrangian) == (True, False, True, False)
    assert len(zero.perp) == 9 and zero.reduced_dims == {"p": 0}
    line = enum_symplectic(J, stalk([1, 2]), WHOLE)
    assert (line.isotropic, line.coisotropic, line.symplectic,
            line.lagrangian) == (True, True, False, True)
    assert len(line.perp) == 3 and line.reduced_dims == {"p": 0}
    full = enum_symplectic(J, stalk([1, 0], [0, 1]), WHOLE)
    assert (full.isotropic, full.coisotropic, full.symplectic,
            full.lagrangian) == (False, True, True, False)
    assert len(full.perp) == 1 and full.reduced_dims == {"p": 2}


def test_the_wedge_sum_is_checked_entry_by_entry():
    a, b = (Section(WHOLE, {"p": (F3.one, F3.zero)}),
            Section(WHOLE, {"p": (F3.zero, F3.one)}))
    assert wedge_sum_matches(J, [(a, b)], WHOLE)
    assert not wedge_sum_matches(J, [(b, a)], WHOLE)
    assert not wedge_sum_matches(J, [], WHOLE)
