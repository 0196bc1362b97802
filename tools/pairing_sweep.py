"""Cross-check the pairing side against the oracle on every small world.

Usage::

    python tools/pairing_sweep.py

A world is a topology on labelled points (``sweep.topologies``: every
topology on at most three points), the field F_2 or F_3, the ranks of the
pairing's two sides (1 or 2 each) and a gram family: at each point one of
the matrices ``GRAMS`` lists for those ranks, in every combination.  The
square ones include a matrix that is invertible and one that is degenerate,
neither of them symmetric, and at rank 2 a symmetric invertible one whose
inverse differs from it over F_2 as over F_3, so that a transpose taken
with the inverse where the gram belongs fails on both fields; a matrix
that is not square is degenerate on its larger side.  On each world:

- ``is_nondegenerate`` is compared with the radicals the oracle enumerates
  at each point (``enum_annihilator`` of everything, on a one-point copy
  of the gram): it fails exactly when some gram is not square or has a
  nonzero radical, at the first such point; it names the right side when
  the right radical there is nonzero and the left side otherwise; and its
  witness is a section over the point's minimal open, zero off the point
  and a nonzero member of that radical at it;
- ``annihilator``, for every stalkwise sub-sheaf of the left side (stalks
  from ``sweep.subspaces``), and ``left_annihilator``, for every stalkwise
  sub-sheaf of the right side, have on every open exactly the sections
  ``enum_annihilator`` enumerates; for the left annihilator the oracle is
  given the pairing with each gram transposed entry by entry here;
- ``transpose_endomorphism``, on each world whose sides have one rank and
  whose grams the oracle finds invertible at every point (no nonzero
  radical), for every family of the endomorphisms ``ENDOS`` lists for that
  rank: with T its answer for S, <S u, v> = <u, T v> under the gram for
  all members u, v of each point's stalk, evaluated with the oracle's
  ``_apply`` and ``_dot``.

Each disagreement is printed on one line, then the totals; the exit code
is 1 if there was any.  Tier-1 runs the worlds on at most two points in
``tests/test_pairing_oracle.py``.
"""

import collections
import itertools
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))
sys.path.insert(0, str(REPO / "tools"))

import oracle  # noqa: E402
from sheafplectic.exactalg import Matrix  # noqa: E402
from sheafplectic.modsheaf import (  # noqa: E402
    FreeModuleSheaf,
    MorphismSheaf,
    PairingSheaf,
    SubmoduleSheaf,
    full_submodule,
)
from sheafplectic.pairing import (  # noqa: E402
    annihilator,
    is_nondegenerate,
    left_annihilator,
    transpose_endomorphism,
)
from sheafplectic.space import FiniteSpace  # noqa: E402
from sweep import (  # noqa: E402
    FIELDS,
    MAX_POINTS,
    members,
    subspaces,
    topologies,
)

# (left rank, right rank) -> the grams a point may carry, as integer rows;
# over F_2 the inverse of [[1, 1], [1, 0]] is [[0, 1], [1, 1]], while
# [[1, 1], [0, 1]] is its own
GRAMS = {
    (1, 1): ([[1]], [[0]]),
    (1, 2): ([[1, 1]], [[0, 0]]),
    (2, 1): ([[0], [1]], [[0], [0]]),
    (2, 2): ([[1, 1], [0, 1]], [[0, 1], [0, 0]], [[1, 1], [1, 0]]),
}
# rank -> the endomorphisms a point may carry: the identity, a nilpotent
# and, at rank 2, an invertible one that is not symmetric
ENDOS = {
    1: ([[1]], [[0]]),
    2: ([[1, 0], [0, 1]], [[0, 1], [0, 0]], [[1, 1], [0, 1]]),
}
ONE_POINT = FiniteSpace(("p",), [(), ("p",)])


def _matrix(field, rows, cols):
    return Matrix.from_rows(field, [[field.from_int(a) for a in r]
                                    for r in rows], cols=cols)


def _transposed(p):
    """The pairing of the right side with the left, each gram transposed
    entry by entry."""
    return PairingSheaf(p.right, p.left, {
        x: Matrix.from_rows(p.field, list(zip(*g.entries)), cols=g.rows)
        for x, g in p.gram.items()})


class _Oracle:
    """The oracle's radicals per gram, annihilator sections per list of
    (gram, stalk) pairs on an open's points and adjointness per gram and
    pair of endomorphisms, which do not depend on the topology; each is
    enumerated once."""

    def __init__(self):
        self._radicals, self._sections, self._adjoint = {}, {}, {}

    def radicals(self, field, gram):
        """The members of the left and of the right radical of one gram."""
        if gram not in self._radicals:
            left = FreeModuleSheaf(ONE_POINT, field, gram.rows)
            right = FreeModuleSheaf(ONE_POINT, field, gram.cols)
            p = PairingSheaf(left, right, {"p": gram})
            whole = ONE_POINT.index_of(("p",))
            self._radicals[gram] = tuple(
                {s.values["p"] for s in oracle.enum_annihilator(
                    q, full_submodule(q.left), whole)}
                for q in (_transposed(p), p))
        return self._radicals[gram]

    def sections(self, p, g, u):
        """The annihilator's sections over ``u``, as value tuples."""
        pts = p.space.member_points(u)
        key = tuple((p.gram[x], g.stalks[x]) for x in pts)
        if key not in self._sections:
            self._sections[key] = {
                tuple(s.values[x] for x in pts)
                for s in oracle.enum_annihilator(p, g, u)}
        return self._sections[key]

    def adjoint(self, field, gram, s, t):
        """Whether <S u, v> = <u, T v> under ``gram`` for all u, v."""
        key = (gram, s, t)
        if key not in self._adjoint:
            vectors = list(itertools.product(field.elements(),
                                             repeat=gram.rows))

            def pair(u, v):
                return oracle._dot(field, u, oracle._apply(field, gram, v))

            self._adjoint[key] = all(
                pair(oracle._apply(field, s, u), v) ==
                pair(u, oracle._apply(field, t, v))
                for u in vectors for v in vectors)
        return self._adjoint[key]


def _nondegeneracy_disagreements(p, cache, counts):
    """What ``is_nondegenerate`` gets wrong on one pairing."""
    space, field = p.space, p.field
    bad = None
    for x in space.points:
        left, right = cache.radicals(field, p.gram[x])
        if p.gram[x].rows != p.gram[x].cols or len(left) > 1 or len(right) > 1:
            bad = x
            break
    res = is_nondegenerate(p)
    if bad is None:
        return [] if res.ok else ["is_nondegenerate fails a nondegenerate "
                                  "pairing at %s" % res.point]
    if res.ok or res.point != bad:
        return ["is_nondegenerate: %s, not a failure at %s"
                % ("ok" if res.ok else "failure at %s" % res.point, bad)]
    left, right = cache.radicals(field, p.gram[bad])
    side, radical = ("right", right) if len(right) > 1 else ("left", left)
    if res.side != side:
        return ["is_nondegenerate at %s: %s side, not %s" % (bad, res.side, side)]
    minimal = frozenset.intersection(*[o for o in space.opens if bad in o])
    values = res.witness.values
    zero = (field.zero,) * len(values[bad])
    if space.opens[res.witness.over] != minimal or set(values) != minimal or \
            any(values[y] != zero for y in minimal if y != bad) or \
            values[bad] == zero or values[bad] not in radical:
        return ["is_nondegenerate at %s: wrong witness" % bad]
    counts["%s witnesses" % side] += 1
    return []


def _annihilator_disagreements(p, which, main, stalk_families, cache, counts):
    """What ``main(g)`` gets wrong for every sub-sheaf g of ``p.left``:
    on each open, its sections against those of the oracle's annihilator
    of g under ``p``."""
    space, field = p.space, p.field
    found = []
    for stalks in stalk_families:
        g = SubmoduleSheaf(p.left, stalks)
        counts["sub-sheaves"] += 1
        try:
            got = main(g)
        except Exception as exc:
            found.append("%s: %s: %s" % (which, type(exc).__name__, exc))
            continue
        for u in range(len(space.opens)):
            mine = set(itertools.product(*[members(got.stalks[x])
                                           for x in space.member_points(u)]))
            if mine != cache.sections(p, g, u):
                found.append("%s on %s: stalks=%s" % (
                    which, sorted(space.opens[u]),
                    [[[field.format(a) for a in r] for r in stalks[x].basis]
                     for x in space.points]))
    return found


def _transpose_disagreements(p, cache, counts):
    """What ``transpose_endomorphism`` gets wrong on one pairing, for every
    family of ``ENDOS``; none unless the sides have one rank and every gram
    is invertible."""
    field, points = p.field, p.space.points
    if p.left != p.right or any(len(r) > 1 for x in points
                                for r in cache.radicals(field, p.gram[x])):
        return []
    endos = [_matrix(field, e, p.left.rank) for e in ENDOS[p.left.rank]]
    found = []
    for family in itertools.product(endos, repeat=len(points)):
        s = MorphismSheaf(p.left, p.left, dict(zip(points, family)))
        counts["endomorphisms"] += 1
        try:
            t = transpose_endomorphism(p, s)
        except Exception as exc:
            found.append("transpose_endomorphism: %s: %s"
                         % (type(exc).__name__, exc))
            continue
        found += ["transpose_endomorphism at %s: S=%s" % (
            x, [[field.format(a) for a in r] for r in s.mats[x].entries])
            for x in points
            if not cache.adjoint(field, p.gram[x], s.mats[x], t.mats[x])]
    return found


def _worlds(max_points):
    """(pairing, left stalk families, right stalk families) for each field,
    pair of ranks, topology and gram family swept."""
    for field in FIELDS:
        for (lr, rr), grams in GRAMS.items():
            grams = [_matrix(field, g, rr) for g in grams]
            for n in range(max_points + 1):
                points = tuple("p%d" % i for i in range(n))
                stalks = [[dict(zip(points, c)) for c in itertools.product(
                    subspaces(field, rank), repeat=n)] for rank in (lr, rr)]
                for space in topologies(n):
                    left = FreeModuleSheaf(space, field, lr)
                    right = left if lr == rr else \
                        FreeModuleSheaf(space, field, rr)
                    for family in itertools.product(grams, repeat=n):
                        yield (PairingSheaf(left, right,
                                            dict(zip(points, family))),
                               *stalks)


def sweep(max_points=MAX_POINTS, out=print):
    """Run every world on at most ``max_points`` points; print each
    disagreement through ``out`` and return ``(counts, disagreements)``.
    ``counts`` holds the worlds (a topology, field, pair of ranks and gram
    family each), the annihilator and left annihilator calls checked, the
    witnesses checked on each side and the endomorphism families whose
    transpose was checked."""
    cache = _Oracle()
    counts = collections.Counter()
    found = []
    for p, left_stalks, right_stalks in _worlds(max_points):
        counts["worlds"] += 1
        grams = [[[p.field.format(a) for a in r] for r in p.gram[x].entries]
                 for x in p.space.points]
        label = "F_%d opens=%s gram=%s" % (
            p.field.p, [sorted(o) for o in p.space.opens], grams)
        lines = _nondegeneracy_disagreements(p, cache, counts)
        lines += _annihilator_disagreements(
            p, "annihilator", lambda g: annihilator(p, g), left_stalks,
            cache, counts)
        lines += _annihilator_disagreements(
            _transposed(p), "left_annihilator",
            lambda h: left_annihilator(p, h),
            right_stalks, cache, counts)
        lines += _transpose_disagreements(p, cache, counts)
        lines = ["%s: %s" % (line, label) for line in lines]
        for line in lines:
            out(line)
        found += lines
    return counts, found


def main():
    counts, found = sweep()
    print("%d worlds, %d sub-sheaves, %d endomorphisms, %d disagreements"
          % (counts["worlds"], counts["sub-sheaves"], counts["endomorphisms"],
             len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
