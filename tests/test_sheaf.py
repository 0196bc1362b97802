import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sheafplectic.exactalg import AmbientMismatch, Matrix, PrimeField, QQ, Subspace
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    ParentMismatch,
    Section,
    SubmoduleSheaf,
    full_submodule,
    intersect_submodules,
    quotient,
    sections_basis,
    sum_submodules,
    zero_submodule,
)
from sheafplectic.sheaf import (
    ExplicitPresheaf,
    OverlapMismatch,
    Counterexample,
    check_completeness,
    constant_presheaf,
    glue,
    make_section,
    restrict_section,
    sections_presheaf,
    sheafify,
)
from sheafplectic.space import Cover, FiniteSpace, chain, discrete, sierpinski
from sheafplectic.suites import rand_space, rand_stalks

ONE_POINT = FiniteSpace(("p",), [(), ("p",)])


def qspan(n, rows):
    return Subspace.span(QQ, n, [[F(a) for a in r] for r in rows])


def submodule(e, per_point):
    return SubmoduleSheaf(e, {x: qspan(e.rank, rows)
                              for x, rows in per_point.items()})


def presheaf_over(sp, dims, maps):
    """The presheaf on a discrete space with ``dims[name]`` over each
    nonempty open (named by its points) and ``maps[x]`` restricting the
    whole space to the point x; every other restriction is zero or the
    identity."""
    name = ["".join(sorted(o)) for o in sp.opens]
    d = [dims.get(k, 0) for k in name]
    restrictions = {}
    for u, big in enumerate(sp.opens):
        for v, small in enumerate(sp.opens):
            if small <= big:
                rows = (Matrix.identity(QQ, d[u]).entries if u == v else
                        [[F(a) for a in r] for r in maps[name[v]]]
                        if len(small) == 1 and len(big) == len(sp.points)
                        else [(F(0),) * d[u]] * d[v])
                restrictions[(u, v)] = Matrix.from_rows(QQ, rows, cols=d[u])
    return ExplicitPresheaf(sp, QQ, d, restrictions)


class TestSectionsBasis:
    def test_full_one_point_rank2(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        u = ONE_POINT.index_of(("p",))
        assert len(sections_basis(full_submodule(e), u)) == 2

    def test_zero_submodule(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        u = ONE_POINT.index_of(("p",))
        assert sections_basis(zero_submodule(e), u) == []

    def test_mixed_dims_counted_by_f2_enumeration(self):
        f2 = PrimeField(2)
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, f2, 2)
        f = SubmoduleSheaf(e, {
            "a": Subspace.span(f2, 2, [(f2.one, f2.zero)]),
            "b": Subspace.full(f2, 2),
        })
        u = sp.index_of(("a", "b"))
        basis = sections_basis(f, u)
        assert len(basis) == 3
        # enumeration oracle: a dim-3 F_2 space has exactly 8 sections
        from oracle import enum_submodule_sections
        assert len(enum_submodule_sections(f, u)) == 2 ** 3


    @pytest.mark.parametrize("seed", range(6))
    def test_basis_of_the_sections_over_every_open(self, seed):
        # one section per stalk basis vector: zero away from its point, in
        # the sub-sheaf, and independent as vectors of (+)_x F_x
        rng = random.Random(seed)
        field = (QQ, PrimeField(2), PrimeField(3))[seed % 3]
        e = FreeModuleSheaf(rand_space(rng), field, rng.randint(1, 3))
        f = rand_stalks(e, rng)
        for u in range(len(e.space.opens)):
            pts = e.space.member_points(u)
            basis = sections_basis(f, u)
            assert len(basis) == sum(f.stalks[x].dim for x in pts)
            for s in basis:
                assert s.over == u and f.contains_section(s)
                assert sum(1 for x in pts if any(s.values[x])) == 1
            flat = [sum((s.values[x] for x in pts), ()) for s in basis]
            assert Subspace.span(field, e.rank * len(pts), flat).dim == len(basis)


class TestSectionsModule:
    """The sections over one open form a module, pointwise."""

    def test_sum_and_multiple(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        u, ua = sp.index_of(("a", "b")), sp.index_of(("a",))
        s = make_section(e, u, {"a": (F(1), F(2)), "b": (F(0), F(1))})
        t = make_section(e, u, {"a": (F(3), F(0)), "b": (F(1, 2), F(-1))})
        assert (s + t).values == {"a": (F(4), F(2)), "b": (F(1, 2), F(0))}
        assert (s + s.scale(F(-1))).is_zero()
        assert restrict_section(sp, s + t, ua) == \
            restrict_section(sp, s, ua) + restrict_section(sp, t, ua)

    def test_submodule_repr_names_rank_and_stalk_dims(self):
        e = FreeModuleSheaf(sierpinski(), QQ, 2)
        f = submodule(e, {"a": [[1, 0]], "b": []})
        # the rank is the ambient dimension at every point of a free parent
        assert repr(f) == "SubmoduleSheaf(ambient_dims=[2, 2], stalk_dims=[1, 0])"


class TestGlue:
    def test_single_member(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 1)
        u = sp.index_of(("a", "b"))
        s = make_section(e, u, {"a": (F(1),), "b": (F(2),)})
        assert glue(sp, Cover(u, (u,)), [s]) == s

    def test_discrete_pointwise_union(self):
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, QQ, 1)
        ua, ub, uab = sp.index_of(("a",)), sp.index_of(("b",)), sp.index_of(("a", "b"))
        sa = make_section(e, ua, {"a": (F(3),)})
        sb = make_section(e, ub, {"b": (F(5),)})
        glued = glue(sp, Cover(uab, (ua, ub)), [sa, sb])
        assert glued.values == {"a": (F(3),), "b": (F(5),)}

    def test_overlap_mismatch(self):
        sp = chain(("a", "b"))
        e = FreeModuleSheaf(sp, QQ, 1)
        ua, uab = sp.index_of(("a",)), sp.index_of(("a", "b"))
        sa = make_section(e, ua, {"a": (F(1),)})
        sab = make_section(e, uab, {"a": (F(2),), "b": (F(0),)})
        with pytest.raises(OverlapMismatch) as exc:
            glue(sp, Cover(uab, (ua, uab)), [sa, sab])
        assert exc.value.point == "a"

    def test_glue_restrict_round_trip(self):
        sp = discrete(("a", "b", "c"))
        e = FreeModuleSheaf(sp, QQ, 2)
        u = sp.index_of(("a", "b", "c"))
        s = make_section(e, u, {"a": (F(1), F(2)), "b": (F(3), F(4)),
                                "c": (F(5), F(6))})
        for cover in sp.irredundant_covers(u):
            pieces = [restrict_section(sp, s, m) for m in cover.members]
            assert glue(sp, cover, pieces) == s


class TestCompleteness:
    def test_free_sheaf_sections_pass(self):
        for sp in (sierpinski(), discrete(("a", "b")), chain(("a", "b", "c"))):
            e = FreeModuleSheaf(sp, QQ, 2)
            assert check_completeness(sections_presheaf(full_submodule(e))).ok

    def test_submodule_sections_pass(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 3)
        f = submodule(e, {"a": [[1, 0, 0], [0, 1, 1]], "b": [[1, 2, 3]]})
        assert check_completeness(sections_presheaf(f)).ok

    def test_constant_presheaf_fails_s2_with_witness(self):
        sp = discrete(("a", "b"))
        rep = check_completeness(constant_presheaf(sp, QQ, 1))
        assert rep.s2 is not None
        cover = rep.s2.cover
        members = {frozenset(sp.opens[m]) for m in cover.members}
        assert members == {frozenset("a"), frozenset("b")}
        assert rep.s2.family in (((F(1),), (F(0),)), ((F(0),), (F(1),)),
                                 ((F(1),), (F(-1),)))

    def test_failing_s1_and_s2_names_the_first_witnesses(self):
        # over {a, b} the joint restriction [[1, 2, 0], [2, 4, 0]] has a
        # kernel and its image misses the compatible family (1, 0)
        sp = discrete(("a", "b"))
        rep = check_completeness(presheaf_over(sp, {"a": 1, "b": 1, "ab": 3}, {
            "a": [[1, 2, 0]], "b": [[2, 4, 0]]}))
        ab = sp.index_of(("a", "b"))
        cover = Cover(ab, (sp.index_of(("a",)), sp.index_of(("b",))))
        assert rep.s1 == Counterexample(ab, cover,
                                        section=(F(1), F(-1, 2), F(0)))
        assert rep.s2 == Counterexample(ab, cover, family=((F(1),), (F(0),)))

    def test_failing_only_s2_names_the_first_family_outside(self):
        # the sections over {a, b} hit the families (1 | 0, 0) and
        # (0 | 1, 0); the third family (0 | 0, 1) is the first one outside
        sp = discrete(("a", "b"))
        rep = check_completeness(presheaf_over(sp, {"a": 1, "b": 2, "ab": 2}, {
            "a": [[1, 0]], "b": [[0, 1], [0, 0]]}))
        ab = sp.index_of(("a", "b"))
        cover = Cover(ab, (sp.index_of(("a",)), sp.index_of(("b",))))
        assert rep.s1 is None
        assert rep.s2 == Counterexample(ab, cover,
                                        family=((F(0),), (F(0), F(1))))

    def test_nonzero_at_empty_open_fails_s1(self):
        sp = discrete(("a", "b"))
        rep = check_completeness(constant_presheaf(sp, QQ, 1))
        assert rep.s1 is not None
        assert sp.opens[rep.s1.open] == frozenset()
        assert rep.s1.cover.members == ()


def _projection_restrictions():
    """Sierpinski, dims 0, 1, 2: the open {a, b} restricts to {a} by
    keeping its first coordinate."""
    return {(0, 0): Matrix.identity(QQ, 0),
            (1, 1): Matrix.identity(QQ, 1),
            (2, 2): Matrix.identity(QQ, 2),
            (1, 0): Matrix.from_rows(QQ, [], cols=1),
            (2, 0): Matrix.from_rows(QQ, [], cols=2),
            (2, 1): Matrix.from_rows(QQ, [[F(1), F(0)]])}


class TestSheafify:
    def test_complete_presheaf_keeps_its_shape(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        p = sections_presheaf(full_submodule(e))
        sh, unit = sheafify(p)
        assert sh.dims == p.dims
        from sheafplectic.exactalg import inverse
        for u, m in unit.items():
            assert m.rows == m.cols == p.dims[u]
            if m.rows:
                assert inverse(m) is not None

    def test_constant_becomes_product(self):
        sp = discrete(("a", "b"))
        sh, unit = sheafify(constant_presheaf(sp, QQ, 1))
        by_open = {frozenset(sp.opens[u]): sh.dims[u] for u in range(len(sp.opens))}
        assert by_open == {frozenset(): 0, frozenset("a"): 1,
                           frozenset("b"): 1, frozenset(("a", "b")): 2}
        assert check_completeness(sh).ok

    def test_projection_presheaf_on_sierpinski(self):
        sp = sierpinski()
        p = ExplicitPresheaf(sp, QQ, [0, 1, 2], _projection_restrictions())
        sh, unit = sheafify(p)
        assert sh.dims[sp.index_of(("a", "b"))] == 2
        assert check_completeness(sh).ok

    def test_output_always_complete(self):
        sp = discrete(("a", "b"))
        sh, _ = sheafify(constant_presheaf(sp, QQ, 2))
        assert check_completeness(sh).ok


class TestExplicitPresheafRejections:
    def test_accepts_the_projection_presheaf(self):
        ExplicitPresheaf(sierpinski(), QQ, [0, 1, 2], _projection_restrictions())

    def test_one_dimension_per_open(self):
        with pytest.raises(ValueError, match="need one dimension per open set"):
            ExplicitPresheaf(sierpinski(), QQ, [0, 1], _projection_restrictions())

    def test_missing_restriction(self):
        r = _projection_restrictions()
        del r[(2, 1)]
        with pytest.raises(ValueError, match=r"missing restriction \(2, 1\)"):
            ExplicitPresheaf(sierpinski(), QQ, [0, 1, 2], r)

    def test_restriction_shape(self):
        r = _projection_restrictions()
        r[(2, 1)] = Matrix.from_rows(QQ, [[F(1)]])
        with pytest.raises(ValueError, match=r"restriction \(2, 1\) has shape "
                                             r"1x1, expected 1x2"):
            ExplicitPresheaf(sierpinski(), QQ, [0, 1, 2], r)

    def test_self_restriction_is_identity(self):
        r = _projection_restrictions()
        r[(2, 2)] = Matrix.from_rows(QQ, [[F(1), F(0)], [F(0), F(2)]])
        with pytest.raises(ValueError,
                           match=r"restriction \(2, 2\) is not the identity"):
            ExplicitPresheaf(sierpinski(), QQ, [0, 1, 2], r)


class TestRestrictionFunctoriality:
    def test_sections_presheaf_functorial(self):
        sp = chain(("a", "b", "c"))
        e = FreeModuleSheaf(sp, QQ, 2)
        f = submodule(e, {"a": [[1, 0]], "b": [[1, 1]], "c": []})
        assert sections_presheaf(f).functoriality_failures() == []


class TestSumIntersect:
    def test_sum_with_zero(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        f = submodule(e, {"a": [[1, 1]], "b": [[0, 1]]})
        assert sum_submodules([f, zero_submodule(e)]) == f

    def test_axes(self):
        sp = ONE_POINT
        e = FreeModuleSheaf(sp, QQ, 3)
        f = submodule(e, {"p": [[1, 0, 0]]})
        g = submodule(e, {"p": [[0, 1, 0]]})
        assert sum_submodules([f, g]).stalks["p"] == qspan(3, [[1, 0, 0], [0, 1, 0]])
        assert intersect_submodules([f, g]).stalks["p"].dim == 0

    def test_intersection_with_full(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        f = submodule(e, {"a": [[1, 2]], "b": []})
        assert intersect_submodules([f, full_submodule(e)]) == f

    def test_parent_mismatch(self):
        e1 = FreeModuleSheaf(ONE_POINT, QQ, 2)
        e2 = FreeModuleSheaf(ONE_POINT, QQ, 3)
        with pytest.raises(ParentMismatch):
            sum_submodules([full_submodule(e1), full_submodule(e2)])

    def test_sections_equal_span_of_union(self):
        # the sum's sections over U are spanned by the operands' sections
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, QQ, 3)
        f = submodule(e, {"a": [[1, 1, 0]], "b": [[1, 0, 0]]})
        g = submodule(e, {"a": [[1, -1, 0]], "b": [[1, 0, 0]]})
        s = sum_submodules([f, g])
        u = sp.index_of(("a", "b"))
        span_dims = sum(s.stalks[x].dim for x in sp.points)
        assert len(sections_basis(s, u)) == span_dims
        for sec in sections_basis(f, u) + sections_basis(g, u):
            assert s.contains_section(sec)


class TestOrder:
    """``<=`` on sub-sheaves is stalkwise inclusion, and ``==`` is ``<=``
    both ways.  Random stalks are seldom nested, so the second operand is
    also drawn as a sum or intersection with the first, or the first."""

    @staticmethod
    def pair(rng, field):
        e = FreeModuleSheaf(rand_space(rng, 3), field, rng.randint(1, 3))
        f, h = rand_stalks(e, rng), rand_stalks(e, rng)
        g = rng.choice([h, sum_submodules([f, h]), intersect_submodules([f, h]),
                        SubmoduleSheaf(e, dict(f.stalks))])
        return (f, g) if rng.random() < 0.5 else (g, f)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @settings(max_examples=60, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_inclusion_is_stalkwise(self, field, rng):
        f, g = self.pair(rng, field)
        assert (f <= g) == all(f.stalks[x].is_subspace_of(g.stalks[x])
                               for x in f.space.points)
        assert (f <= g and g <= f) == (f == g)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @settings(max_examples=20, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_different_ranks_do_not_compare(self, field, rng):
        space = rand_space(rng, 3)
        n = rng.randint(1, 3)
        f = rand_stalks(FreeModuleSheaf(space, field, n), rng)
        g = rand_stalks(FreeModuleSheaf(space, field, n + 1), rng)
        with pytest.raises(AmbientMismatch):
            f <= g


class TestQuotient:
    def test_zero_denominator_gives_identity(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        quot = quotient(zero_submodule(e))
        assert quot.stalk_dim("p") == 2
        assert quot.proj["p"].entries == Matrix.identity(QQ, 2).entries

    def test_full_denominator_gives_zero(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        quot = quotient(full_submodule(e))
        assert quot.stalk_dim("p") == 0

    def test_rank3_example(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 3)
        f = submodule(e, {"p": [[1, 1, 0]]})
        quot = quotient(f)
        assert quot.stalk_dim("p") == 2
        assert quot.proj["p"].mat_vec((F(1), F(1), F(0))) == (F(0), F(0))

    def test_short_exact_sequence_over_every_open(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 3)
        f = submodule(e, {"a": [[1, 1, 0], [0, 0, 1]], "b": [[1, 2, 3]]})
        quot = quotient(f)
        q = MorphismSheaf(e, quot, quot.proj)
        for u in range(len(sp.opens)):
            pts = sp.member_points(u)
            dim_f = sum(f.stalks[x].dim for x in pts)
            dim_e = e.rank * len(pts)
            dim_q = sum(quot.stalk_dim(x) for x in pts)
            assert dim_f + dim_q == dim_e
            for sec in sections_basis(f, u):
                assert q.apply(sec).is_zero()
            # surjectivity pointwise: the projection has full row rank
            from sheafplectic.exactalg import rank_of
            for x in pts:
                assert rank_of(q.mats[x]) == quot.stalk_dim(x)

    def test_a_sub_sheaf_of_a_quotient_has_its_stalk_shapes(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 3)
        quot = quotient(submodule(e, {"a": [[1, 0, 0], [0, 1, 0]], "b": []}))
        g = SubmoduleSheaf(quot, {"a": Subspace.full(QQ, 1),
                                  "b": Subspace.span(QQ, 3, [[F(0), F(1), F(1)]])})
        assert repr(g) == "SubmoduleSheaf(ambient_dims=[1, 3], stalk_dims=[1, 1])"
        full = sp.index_of(sp.points)
        assert [s.values for s in sections_basis(g, full)] == [
            {"a": (F(1),), "b": (F(0),) * 3},
            {"a": (F(0),), "b": (F(0), F(1), F(1))}]
        with pytest.raises(ValueError, match="expected"):
            SubmoduleSheaf(quot, {x: Subspace.full(QQ, 3) for x in sp.points})
