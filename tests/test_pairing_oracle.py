"""The pairing side against its definitions.

``tools/pairing_sweep.py`` compares ``is_nondegenerate`` (its witness
included), ``annihilator`` and ``left_annihilator`` with the oracle on
every world: a topology on at most three points, F_2 or F_3, sides of rank
1 or 2, and every family of the sweep's grams, degenerate, non-symmetric
and non-square ones included.  On the worlds with invertible square grams
it checks ``transpose_endomorphism`` against the defining identity for
every family of a few fixed endomorphisms.  Tier-1 runs the worlds on at
most two points (a few seconds).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pairing_sweep  # noqa: E402


def test_the_worlds_on_at_most_two_points_agree_with_the_oracle():
    lines = []
    counts, found = pairing_sweep.sweep(2, out=lines.append)
    # per field and pair of ranks, two grams: 1 + 2 + 4 * 2**2 families on
    # the 1, 1 and 4 topologies on 0, 1 and 2 points
    assert counts["worlds"] == 2 * 4 * (1 + 2 + 4 * 2**2)
    # each world checks every sub-sheaf of either side; F^1 has 2
    # subspaces, F_2^2 has 5 and F_3^2 has 6
    assert counts["sub-sheaves"] == sum(
        2 + 2 * (sl + sr) + 4 * 2**2 * (sl**2 + sr**2)
        for sizes in ((2, 5), (2, 6)) for sl in sizes for sr in sizes)
    assert counts["left witnesses"] > 0 and counts["right witnesses"] > 0
    # one invertible gram family per field, rank and topology; 2 endomorphisms
    # a point at rank 1 and 3 at rank 2, in every combination
    assert counts["endomorphisms"] == 2 * sum(
        1 + e + 4 * e**2 for e in (2, 3))
    assert found == lines == []
