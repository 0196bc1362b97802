"""The symplectic constructions against their definitions.

The symplectic family of ``tools/sweep.py`` compares ``form_rank``,
``darboux``, ``darboux_reconstructs``, ``form_perp``, ``classify``,
``reduce`` and ``reduce_lagrangian`` with the oracle on every world: a
topology on at most three points at rank 1 or 2, or one point at rank 4,
over F_2 or F_3, with every alternating coefficient family and every
stalkwise sub-sheaf.
Tier-1 runs the worlds on at most two points and the rank-4 point (a few
seconds); the oracle's own answers are pinned on one point by hand.
"""

import collections
import sys
from pathlib import Path

from sheafplectic.exactalg import Matrix, PrimeField, Subspace
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    Section,
    SubmoduleSheaf,
    TwoFormSheaf,
)
from sheafplectic.space import FiniteSpace

from oracle import (
    enum_symplectic,
    projected_meet,
    reduced_form_matches,
    vanishes_on,
    wedge_sum_matches,
)

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
    sizes = collections.Counter(len(s.points) for s in sweep.spaces(3))
    assert [sizes[n] for n in range(4)] == [1, 1, 4, 29]


def test_the_worlds_on_at_most_two_points_agree_with_the_oracle():
    lines = []
    counts, found = sweep.symplectic(2, out=lines.append)
    # rank 1: the zero form on 1 + 1 + 4 topologies per field; rank 2: every
    # coefficient family on them; rank 4: every alternating 4 x 4 matrix
    assert counts["worlds"] == 2 * 6 + (1 + 2 + 4 * 2**2) + \
        (1 + 3 + 4 * 3**2) + 2**6 + 3**6
    # rank 2, F_2: 1 + 5 + 4 * 5**2; F_3: 1 + 6 * 2 + 4 * 6**2 * 2**2;
    # rank 4: every subspace for each of the two forms
    assert counts["sub-sheaves"] == 106 + 589 + 2 * (67 + 212)
    assert counts["reduce_lagrangian"] == 954
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


def test_the_reduced_form_is_evaluated_on_every_pair_of_members():
    identity = {"p": Matrix.from_rows(F3, [[F3.one, F3.zero],
                                           [F3.zero, F3.one]])}
    full = stalk([1, 0], [0, 1])
    assert reduced_form_matches(J, full, identity, J.gram)
    doubled = {"p": Matrix.from_rows(F3, [[F3.zero, -F3.one],
                                          [F3.one, F3.zero]])}
    assert not reduced_form_matches(J, full, identity, doubled)
    # a line is isotropic: it reduces to nothing
    line = stalk([1, 2])
    assert reduced_form_matches(J, line, {"p": Matrix.zeros(F3, 0, 2)},
                                {"p": Matrix.zeros(F3, 0, 0)})


def test_the_projected_meet_is_the_image_of_the_enumerated_meet():
    swap = {"p": Matrix.from_rows(F3, [[F3.zero, F3.one],
                                       [F3.one, F3.zero]])}
    image = projected_meet(stalk([1, 0], [0, 1]), stalk([1, 2]), swap)
    two = F3.from_int(2)
    assert image == {"p": frozenset({(F3.zero, F3.zero), (two, F3.one),
                                     (F3.one, two)})}
    assert vanishes_on(J.gram["p"], image["p"])
    assert not vanishes_on(J.gram["p"], image["p"] | {(F3.one, F3.zero)})
