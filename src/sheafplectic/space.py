"""Finite topological spaces given as explicit open-set lattices.

Opens are kept in a canonical order (by size, then by the sorted point
names), so open-set indices are stable across runs.  Every open U is the
union of the minimal opens U_x of its points, and ``minimal_cover`` keeps
the largest of them: that cover refines every other cover of U, so the
sheaf checks need no other.  ``irredundant_covers`` enumerates all covers
in which no member lies in the union of the others; it serves the oracle's
independent cross-check and the tests, and its count grows
super-exponentially with the number of opens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class UnknownPoint(ValueError):
    pass


@dataclass(frozen=True)
class Cover:
    """Open cover of one open set, members given as open indices."""

    target: int
    members: tuple


@dataclass(frozen=True)
class TopologyReport:
    ok: bool
    kind: Optional[str] = None       # "MissingEmptyOrFull" | "NotClosedUnderUnion" | "NotClosedUnderIntersection"
    pair: Optional[tuple] = None     # offending open indices, when applicable

    def __str__(self):
        if self.ok:
            return "ok"
        if self.pair is not None:
            return "%s%r" % (self.kind, self.pair)
        return str(self.kind)


class FiniteSpace:
    """A finite point set plus its lattice of open sets."""

    def __init__(self, points: Sequence[str], opens: Iterable[Iterable[str]]):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate point names")
        self.points = pts
        point_set = set(pts)
        sets = set()
        for o in opens:
            fs = frozenset(o)
            unknown = fs - point_set
            if unknown:
                raise UnknownPoint("open set names unknown point %r" % sorted(unknown)[0])
            sets.add(fs)
        self.opens = tuple(sorted(sets, key=lambda o: (len(o), sorted(o))))
        self._index = {o: i for i, o in enumerate(self.opens)}

    def __eq__(self, other):
        return (isinstance(other, FiniteSpace)
                and self.points == other.points and self.opens == other.opens)

    def __hash__(self):
        return hash((self.points, self.opens))

    def __repr__(self):
        return "FiniteSpace(points=%r, opens=%d)" % (list(self.points), len(self.opens))

    # -- lookups ------------------------------------------------------------

    def index_of(self, point_set: Iterable[str]) -> int:
        fs = frozenset(point_set)
        if fs not in self._index:
            raise ValueError("%r is not an open set of this space" % sorted(fs))
        return self._index[fs]

    def is_open(self, point_set: Iterable[str]) -> bool:
        return frozenset(point_set) in self._index

    def member_points(self, u: int) -> tuple:
        """Points of the open ``u`` in global point order."""
        o = self.opens[u]
        return tuple(x for x in self.points if x in o)

    def opens_containing(self, x: str) -> tuple:
        if x not in self.points:
            raise UnknownPoint(x)
        return tuple(i for i, o in enumerate(self.opens) if x in o)

    def minimal_open(self, x: str) -> int:
        """Index of the smallest open neighbourhood of ``x``."""
        candidates = self.opens_containing(x)
        if not candidates:
            raise UnknownPoint("point %r lies in no open set" % x)
        smallest = self.opens[candidates[0]]
        for i in candidates[1:]:
            smallest = smallest & self.opens[i]
        return self.index_of(smallest)

    def largest_open_inside(self, allowed: Iterable[str], x: str) -> Optional[int]:
        """Largest open containing ``x`` whose points all lie in ``allowed``."""
        allowed_set = frozenset(allowed)
        union: frozenset = frozenset()
        found = False
        for i, o in enumerate(self.opens):
            if x in o and o <= allowed_set:
                union = union | o
                found = True
        if not found:
            return None
        return self.index_of(union)

    def restrict_to(self, u: int) -> "FiniteSpace":
        """Subspace topology on the open ``u``."""
        target = self.opens[u]
        return FiniteSpace(self.member_points(u),
                           [o for o in self.opens if o <= target])

    # -- covers ---------------------------------------------------------------

    def minimal_cover(self, u: int) -> Cover:
        """The cover of ``u`` by its largest minimal opens, in index order.

        Each member U_x keeps ``x`` as a private point, so the cover is
        irredundant, and it refines every open cover of ``u``.
        """
        mins = {self.minimal_open(x) for x in self.member_points(u)}
        return Cover(u, tuple(sorted(
            m for m in mins if not any(self.opens[m] < self.opens[n] for n in mins))))

    def irredundant_covers(self, u: int) -> tuple:
        """Every irredundant cover of ``u`` by open subsets, in a fixed order.

        A cover is irredundant when no member is contained in the union of
        the others; equivalently each member keeps a private point.
        """
        target = self.opens[u]
        if not target:
            return (Cover(u, ()),)
        candidates = [i for i in range(len(self.opens))
                      if self.opens[i] and self.opens[i] <= target]
        results = []

        def extend(start: int, chosen: list, union: frozenset):
            if union == target:
                members = tuple(chosen)
                for k in range(len(members)):
                    rest = frozenset().union(*(self.opens[m] for j, m in enumerate(members) if j != k)) \
                        if len(members) > 1 else frozenset()
                    if self.opens[members[k]] <= rest:
                        return
                results.append(Cover(u, members))
                return
            for i in range(start, len(candidates)):
                c = candidates[i]
                if self.opens[c] <= union:
                    continue  # adds nothing new, can never become irredundant
                extend(i + 1, chosen + [c], union | self.opens[c])

        extend(0, [], frozenset())
        results.sort(key=lambda cov: (len(cov.members), cov.members))
        return tuple(results)


def validate_topology(s: FiniteSpace) -> TopologyReport:
    """Check the lattice axioms; reports the first violated closure pair."""
    full = frozenset(s.points)
    if frozenset() not in s._index or full not in s._index:
        return TopologyReport(False, "MissingEmptyOrFull")
    n = len(s.opens)
    for i in range(n):
        for j in range(i + 1, n):
            if not s.is_open(s.opens[i] | s.opens[j]):
                return TopologyReport(False, "NotClosedUnderUnion", (i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if not s.is_open(s.opens[i] & s.opens[j]):
                return TopologyReport(False, "NotClosedUnderIntersection", (i, j))
    return TopologyReport(True)


def sierpinski() -> FiniteSpace:
    """Two points with opens (empty, {a}, {a, b}); the smallest non-discrete case."""
    return FiniteSpace(("a", "b"), [(), ("a",), ("a", "b")])


def discrete(names: Sequence[str]) -> FiniteSpace:
    """Discrete topology: every subset of ``names`` is open."""
    names = tuple(names)
    subsets = [[]]
    for x in names:
        subsets += [s + [x] for s in subsets]
    return FiniteSpace(names, subsets)


def chain(names: Sequence[str]) -> FiniteSpace:
    """Nested opens (empty, {x1}, {x1, x2}, ...)."""
    names = tuple(names)
    return FiniteSpace(names, [names[:k] for k in range(len(names) + 1)])
