"""The pairing side against its definitions.

The pairing family of ``tools/sweep.py`` compares ``is_nondegenerate``
(its witness included), ``annihilator`` and ``left_annihilator`` with the
oracle on every world: a topology on at most three points, F_2 or F_3,
sides of rank 1 or 2, and every family of the sweep's grams, degenerate,
non-symmetric and non-square ones included.  On the worlds with invertible
square grams it checks ``transpose_endomorphism`` against the defining
identity for every family of a few fixed endomorphisms; at rank 2 one
invertible gram is not its own inverse over either field.  Tier-1 runs
the worlds on at most two points (a few seconds).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import sweep  # noqa: E402


def test_the_worlds_on_at_most_two_points_agree_with_the_oracle():
    lines = []
    counts, found = sweep.pairing(2, out=lines.append)
    # per field and pair of ranks, g grams (two, three at ranks 2 and 2):
    # 1 + g + 4 * g**2 families on the 1, 1 and 4 topologies on 0, 1 and 2
    # points
    assert counts["worlds"] == 2 * sum(1 + g + 4 * g**2 for g in (2, 2, 2, 3))
    # each world checks every sub-sheaf of either side; F^1 has 2
    # subspaces, F_2^2 has 5 and F_3^2 has 6
    assert counts["sub-sheaves"] == sum(
        2 + g * (sl + sr) + 4 * g**2 * (sl**2 + sr**2)
        for sizes in ((2, 5), (2, 6)) for sl in sizes for sr in sizes
        for g in [3 if sl == sr == sizes[1] else 2])
    assert (counts["right witnesses"], counts["left witnesses"]) == (122, 18)
    # per field and topology, every family of the invertible grams (one at
    # rank 1, two at rank 2) with, at each point, one of the 2 endomorphisms
    # at rank 1 and 3 at rank 2, in every combination
    assert counts["endomorphisms"] == 2 * sum(
        1 + i * e + 4 * (i * e)**2 for i, e in ((1, 2), (2, 3)))
    assert found == lines == []
