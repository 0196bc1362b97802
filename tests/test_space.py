import pytest

from sheafplectic.exactalg import QQ, Matrix
from sheafplectic.sheaf import check_completeness, constant_presheaf
from sheafplectic.space import (
    Cover,
    FiniteSpace,
    UnknownPoint,
    chain,
    discrete,
    sierpinski,
    validate_topology,
)


class TestValidation:
    def test_sierpinski_ok(self):
        assert validate_topology(sierpinski()).ok

    def test_discrete_ok(self):
        assert validate_topology(discrete(("a", "b"))).ok

    def test_missing_full(self):
        s = FiniteSpace(("a", "b"), [(), ("a",), ("b",)])
        rep = validate_topology(s)
        assert not rep.ok and rep.kind == "MissingEmptyOrFull"

    def test_union_violation_names_pair(self):
        s = FiniteSpace(("a", "b", "c"), [(), ("a",), ("b",), ("a", "b", "c")])
        rep = validate_topology(s)
        assert rep.kind == "NotClosedUnderUnion"
        i, j = rep.pair
        assert s.opens[i] == frozenset("a") and s.opens[j] == frozenset("b")

    def test_intersection_violation(self):
        s = FiniteSpace(("a", "b", "c"),
                        [(), ("a", "b"), ("b", "c"), ("a", "b", "c")])
        rep = validate_topology(s)
        assert rep.kind == "NotClosedUnderIntersection"

    @pytest.mark.parametrize("points, opens, text", [
        ("ab", [(), ("a",), ("a", "b")], "ok"),
        ("ab", [(), ("a",)], "MissingEmptyOrFull"),
        ("abc", [(), ("a",), ("b",), ("a", "b", "c")],
         "NotClosedUnderUnion(1, 2)"),
    ])
    def test_report_prints_its_verdict(self, points, opens, text):
        assert str(validate_topology(FiniteSpace(tuple(points), opens))) == text

    def test_unknown_point_rejected(self):
        with pytest.raises(UnknownPoint):
            FiniteSpace(("a",), [(), ("a", "z")])

    def test_opens_canonical_and_deduped(self):
        s = FiniteSpace(("a", "b"), [("a", "b"), (), ("a",), ("b", "a")])
        assert s.opens == (frozenset(), frozenset("a"), frozenset(("a", "b")))


class TestMinimalOpen:
    def test_discrete(self):
        d = discrete(("a", "b"))
        assert d.opens[d.minimal_open("a")] == frozenset("a")

    def test_sierpinski_closed_point(self):
        s = sierpinski()
        assert s.opens[s.minimal_open("b")] == frozenset(("a", "b"))

    def test_chain_middle(self):
        c = chain(("a", "b", "c"))
        assert c.opens[c.minimal_open("b")] == frozenset(("a", "b"))

    def test_contained_in_every_open_containing_x(self):
        for s in (sierpinski(), discrete(("a", "b", "c")), chain(("a", "b", "c"))):
            for x in s.points:
                mo = s.opens[s.minimal_open(x)]
                for i in s.opens_containing(x):
                    assert mo <= s.opens[i]

    def test_every_open_is_union_of_minimal_opens(self):
        for s in (sierpinski(), discrete(("a", "b")), chain(("a", "b", "c"))):
            for o in s.opens:
                union = frozenset()
                for x in o:
                    union = union | s.opens[s.minimal_open(x)]
                assert union == o

    def test_repeated_calls_agree(self):
        s = V_SPACE
        first = [s.minimal_open(x) for x in s.points]
        covers = [s.minimal_cover(u) for u in range(len(s.opens))]
        assert [s.minimal_open(x) for x in s.points] == first
        assert [s.minimal_cover(u) for u in range(len(s.opens))] == covers
        assert s.minimal_cover(4) is covers[4]

    def test_invalid_spaces_raise_on_every_call(self):
        no_full = FiniteSpace(("a", "b"), [(), ("a",)])
        not_meet = FiniteSpace(("a", "b", "c"),
                               [(), ("a", "b"), ("b", "c"), ("a", "b", "c")])
        for _ in range(2):
            with pytest.raises(UnknownPoint, match="lies in no open set"):
                no_full.minimal_open("b")
            with pytest.raises(UnknownPoint):
                no_full.minimal_open("z")
            with pytest.raises(ValueError, match="not an open set"):
                not_meet.minimal_open("b")
            with pytest.raises(ValueError, match="not an open set"):
                not_meet.minimal_cover(not_meet.index_of("abc"))
        assert no_full.minimal_cover(1) == Cover(1, (1,))


class TestCovers:
    def test_empty_open_has_the_empty_cover(self):
        s = sierpinski()
        assert s.irredundant_covers(s.index_of(())) == (Cover(0, ()),)

    def test_discrete_two_point(self):
        d = discrete(("a", "b"))
        u = d.index_of(("a", "b"))
        covers = d.irredundant_covers(u)
        as_sets = [tuple(sorted(tuple(sorted(d.opens[m])) for m in c.members))
                   for c in covers]
        assert sorted(as_sets) == [(("a",), ("b",)), (("a", "b"),)]

    def test_chain_has_only_trivial_cover(self):
        c = chain(("a", "b", "c"))
        u = c.index_of(("a", "b"))
        covers = c.irredundant_covers(u)
        assert len(covers) == 1 and covers[0].members == (u,)

    def test_members_keep_private_points(self):
        d = discrete(("a", "b", "c"))
        for u in range(len(d.opens)):
            for cov in d.irredundant_covers(u):
                for k, m in enumerate(cov.members):
                    rest = frozenset().union(
                        *(d.opens[m2] for j, m2 in enumerate(cov.members) if j != k)) \
                        if len(cov.members) > 1 else frozenset()
                    assert not d.opens[m] <= rest


V_SPACE = FiniteSpace(("a", "b", "c"),
                      [(), ("a",), ("a", "b"), ("a", "c"), ("a", "b", "c")])


class TestMinimalCover:
    def test_members_are_the_largest_minimal_opens(self):
        full = V_SPACE.index_of(("a", "b", "c"))
        assert [V_SPACE.opens[m] for m in V_SPACE.minimal_cover(full).members] \
            == [frozenset("ab"), frozenset("ac")]
        s = sierpinski()
        assert s.minimal_cover(s.index_of(())) == Cover(0, ())
        assert s.minimal_cover(2).members == (2,)

    def test_irredundant_and_refines_every_cover(self):
        for s in (sierpinski(), discrete(("a", "b", "c")), chain(("a", "b", "c")),
                  V_SPACE):
            for u in range(len(s.opens)):
                cover = s.minimal_cover(u)
                assert cover in s.irredundant_covers(u)
                for other in s.irredundant_covers(u):
                    assert all(any(s.opens[m] <= s.opens[n] for n in other.members)
                               for m in cover.members)


def _all_covers(space, u):
    """Every cover by open subsets, redundant ones included."""
    import itertools
    target = space.opens[u]
    if not target:
        yield ()
        return
    candidates = [i for i in range(len(space.opens))
                  if space.opens[i] and space.opens[i] <= target]
    for r in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if frozenset().union(*(space.opens[m] for m in combo)) == target:
                yield combo


def _check_s1_over_covers(presheaf, covers_of):
    """Joint-restriction injectivity verdict, cover source pluggable."""
    from sheafplectic.exactalg import Matrix, kernel_basis
    space = presheaf.space
    for u in range(len(space.opens)):
        for members in covers_of(u):
            rows = []
            for m in members:
                rows.extend(presheaf.restrictions[(u, m)].entries)
            joint = Matrix.from_rows(presheaf.field, rows, cols=presheaf.dims[u])
            if kernel_basis(joint).dim > 0:
                return False
    return True


class TestIrredundantEquivalence:
    def test_verdicts_match_full_enumeration(self):
        # redundant members never change the verdict; compare on small spaces
        for space in (sierpinski(), discrete(("a", "b")), chain(("a", "b", "c"))):
            p = constant_presheaf(space, QQ, 1)
            irred = _check_s1_over_covers(
                p, lambda u: [c.members for c in space.irredundant_covers(u)])
            full = _check_s1_over_covers(p, lambda u: list(_all_covers(space, u)))
            assert irred == full
            rep = check_completeness(p)
            assert (rep.s1 is None) == irred


class TestSubspaceTopology:
    def test_largest_open_inside(self):
        s = sierpinski()
        assert s.largest_open_inside({"a"}, "a") == s.index_of(("a",))
        assert s.largest_open_inside({"b"}, "b") is None
        assert s.largest_open_inside({"a", "b"}, "b") == s.index_of(("a", "b"))
