import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sheafplectic.exactalg import (
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    orthogonal_complement,
    rank_of,
    rref,
)
from sheafplectic.sheaf import (
    FreeModuleSheaf,
    PairingSheaf,
    ParentMismatch,
    Section,
    SubmoduleSheaf,
    full_submodule,
    intersect_submodules,
    make_section,
    zero_submodule,
)
from sheafplectic.pairing import canonical_pairing
from sheafplectic.space import FiniteSpace, sierpinski
from sheafplectic.suites import (
    nowhere_zero_lowered_covector,
    rand_coisotropic_with_lagrangian,
    rand_rankwise_form,
    rand_space,
    rand_stalks,
)
from sheafplectic.symplectic import (
    BadSeed,
    DarbouxResult,
    NoAdmissibleNeighborhood,
    NotCoisotropic,
    NotLagrangian,
    RankMismatch,
    RankNotConstant,
    SymplecticModule,
    TwoFormSheaf,
    ZeroFormAt,
    classify,
    contract,
    darboux,
    darboux_reconstructs,
    flat,
    form_perp,
    form_rank,
    lagrangian_complement,
    reduce,
    reduce_lagrangian,
    standard_form,
)

ONE_POINT = FiniteSpace(("p",), [(), ("p",)])


def qmat(rows):
    return Matrix.from_rows(QQ, [[F(a) for a in r] for r in rows])


def qspan(n, rows):
    return Subspace.span(QQ, n, [[F(a) for a in r] for r in rows])


def one_point_form(coeff):
    e = FreeModuleSheaf(ONE_POINT, QQ, coeff.rows)
    return TwoFormSheaf(e, {"p": coeff})


J2 = qmat([[0, 1], [-1, 0]])
J4 = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
RANK4_SCALED = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]])


def rand_skew_of_rank(rng, n, r):
    """Random exact-rank skew matrix: congruence image of a standard block."""
    field = QQ
    base = [[F(0)] * n for _ in range(n)]
    for k in range(r // 2):
        base[2 * k][2 * k + 1] = F(1)
        base[2 * k + 1][2 * k] = F(-1)
    j = Matrix.from_rows(field, [tuple(row) for row in base], cols=n)
    while True:
        p = qmat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if rank_of(p) == n:
            return p.transpose() @ j @ p


class TestValidation:
    def test_rejects_nonskew(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        with pytest.raises(ValueError):
            TwoFormSheaf(e, {"p": qmat([[1, 0], [0, 1]])})

    def test_rejects_nonzero_diagonal_char2(self):
        f2 = PrimeField(2)
        e = FreeModuleSheaf(ONE_POINT, f2, 2)
        bad = Matrix.from_rows(f2, [[f2.one, f2.one], [f2.one, f2.zero]])
        with pytest.raises(ValueError):
            TwoFormSheaf(e, {"p": bad})

    def test_symplectic_module_needs_even_nondegenerate(self):
        e3 = FreeModuleSheaf(ONE_POINT, QQ, 3)
        with pytest.raises(ValueError):
            SymplecticModule(e3, TwoFormSheaf(e3, {"p": Matrix.zeros(QQ, 3, 3)}))
        e2 = FreeModuleSheaf(ONE_POINT, QQ, 2)
        with pytest.raises(ValueError):
            SymplecticModule(e2, TwoFormSheaf(e2, {"p": Matrix.zeros(QQ, 2, 2)}))


class TestContract:
    def test_zero_form(self):
        w = one_point_form(Matrix.zeros(QQ, 3, 3))
        u = ONE_POINT.index_of(("p",))
        s = make_section(w.module, u, {"p": (F(1), F(2), F(3))})
        assert contract(w, s).values["p"] == (F(0), F(0), F(0))

    def test_j2_e1_gives_dual_vector(self):
        w = one_point_form(J2)
        u = ONE_POINT.index_of(("p",))
        s = make_section(w.module, u, {"p": (F(1), F(0))})
        assert contract(w, s).values["p"] == (F(0), F(1))

    def test_linearity(self):
        rng = random.Random(2)
        w = one_point_form(J4)
        u = ONE_POINT.index_of(("p",))
        for _ in range(5):
            a = F(rng.randint(-5, 5))
            v = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            s = Section(u, {"p": v})
            lhs = contract(w, s.scale(a))
            rhs = contract(w, s).scale(a)
            assert lhs == rhs

    def test_rank_mismatch(self):
        w = one_point_form(J2)
        with pytest.raises(RankMismatch):
            contract(w, Section(ONE_POINT.index_of(("p",)), {"p": (F(1),)}))

    def test_degree_one_contraction_is_evaluation(self):
        u = ONE_POINT.index_of(("p",))
        eta = Section(u, {"p": (F(2), F(-1))})
        s = Section(u, {"p": (F(3), F(4))})
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        assert canonical_pairing(e).evaluate(eta, s)["p"] == F(2)


class TestFlat:
    def test_zero_form(self):
        w = one_point_form(Matrix.zeros(QQ, 2, 2))
        res = flat(w)
        assert res.kernel.stalks["p"] == Subspace.full(QQ, 2)
        assert res.image.stalks["p"].dim == 0

    def test_nondegenerate(self):
        res = flat(one_point_form(J4))
        assert res.kernel.stalks["p"].dim == 0
        assert res.image.stalks["p"] == Subspace.full(QQ, 4)

    def test_rank2_in_dim4(self):
        coeff = qmat([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
        res = flat(one_point_form(coeff))
        assert res.kernel.stalks["p"] == qspan(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
        assert res.image.stalks["p"] == qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        # brute force over F_3: the kernel is exactly the vanishing set
        f3 = PrimeField(3)
        a3 = Matrix.from_rows(f3, [[f3.from_int(int(c)) for c in row]
                                   for row in [[0, 1, 0, 0], [-1, 0, 0, 0],
                                               [0, 0, 0, 0], [0, 0, 0, 0]]])
        import itertools
        brute_kernel = {v for v in itertools.product(f3.elements(), repeat=4)
                        if not any(a3.mat_vec(v))}
        assert len(brute_kernel) == 9
        k3 = Subspace.span(f3, 4, [tuple(f3.from_int(int(a.numerator)) for a in row)
                                   for row in res.kernel.stalks["p"].basis])
        assert all(k3.contains(v) for v in brute_kernel)

    def test_rank_split_and_quotient_iso(self):
        rng = random.Random(4)
        for _ in range(5):
            coeff = rand_skew_of_rank(rng, 5, 4)
            res = flat(one_point_form(coeff))
            assert res.image.stalks["p"].dim + res.kernel.stalks["p"].dim == 5
            iso = res.iso["p"]
            assert rank_of(iso) == res.quotient.stalk_dim("p")


class TestFormRank:
    def test_j4(self):
        w = one_point_form(J4)
        assert form_rank(w, ONE_POINT.index_of(("p",))) == 4

    def test_zero(self):
        w = one_point_form(Matrix.zeros(QQ, 4, 4))
        assert form_rank(w, ONE_POINT.index_of(("p",))) == 0

    def test_rank_not_constant(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 4)
        rank2 = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        w = TwoFormSheaf(e, {"a": rank2, "b": J4})
        with pytest.raises(RankNotConstant):
            form_rank(w, sp.index_of(("a", "b")))


class TestDarboux:
    def test_j2_standard(self):
        w = one_point_form(J2)
        r = darboux(w, "p")
        assert r.half_rank == 1
        # the construction contracts the first two coordinate sections
        s1, s2 = r.pairs[0]
        assert s1.values["p"] == (F(0), F(1))
        assert s2.values["p"] == (F(-1), F(0))
        assert darboux_reconstructs(w, r)

    def test_rank4_scaled_block(self):
        w = one_point_form(RANK4_SCALED)
        r = darboux(w, "p")
        assert r.half_rank == 2
        assert darboux_reconstructs(w, r)
        assert 2 * r.half_rank == form_rank(w, r.neighborhood)

    def test_pairs_independent_at_every_point(self):
        rng = random.Random(6)
        for _ in range(10):
            coeff = rand_skew_of_rank(rng, 6, 4)
            w = one_point_form(coeff)
            r = darboux(w, "p")
            rows = [s.values["p"] for pair in r.pairs for s in pair]
            stacked = Matrix.from_rows(QQ, rows, cols=6)
            assert rank_of(stacked) == 2 * r.half_rank
            assert darboux_reconstructs(w, r)

    def test_zero_form_at_point(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        w = TwoFormSheaf(e, {"a": J2, "b": Matrix.zeros(QQ, 2, 2)})
        with pytest.raises(ZeroFormAt):
            darboux(w, "b")

    def test_pivot_reordering_succeeds_on_sierpinski(self):
        # entry (1,2) dies at b but another entry survives there, so the
        # derivation at b picks it and the minimal open works
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 4)
        at_b = qmat([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        at_a = qmat([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
        w = TwoFormSheaf(e, {"a": at_a, "b": at_b})
        r = darboux(w, "b")
        assert sp.opens[r.neighborhood] == frozenset(("a", "b"))
        assert darboux_reconstructs(w, r)

    def test_no_admissible_neighborhood_names_witness(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        w = TwoFormSheaf(e, {"a": Matrix.zeros(QQ, 2, 2), "b": J2})
        with pytest.raises(NoAdmissibleNeighborhood) as exc:
            darboux(w, "b")
        assert exc.value.witness == "a"

    def test_rank_jump_blocks_neighborhood(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 4)
        rank2 = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        w = TwoFormSheaf(e, {"a": J4, "b": rank2})
        with pytest.raises(NoAdmissibleNeighborhood) as exc:
            darboux(w, "b")
        assert exc.value.witness == "a"

    def test_neighborhood_shrinks_to_pivot_support(self):
        # pivot vanishes at b, but b is not in the minimal open of a
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        w = TwoFormSheaf(e, {"a": J2, "b": Matrix.zeros(QQ, 2, 2)})
        r = darboux(w, "a")
        assert sp.opens[r.neighborhood] == frozenset("a")
        assert darboux_reconstructs(w, r)

    def test_seeded(self):
        w = one_point_form(RANK4_SCALED)
        u = ONE_POINT.index_of(("p",))
        seed = Section(u, {"p": (F(0), F(2), F(0), F(0))})
        r = darboux(w, "p", seed=seed)
        assert r.pairs[0][1].values["p"] == (F(0), F(2), F(0), F(0))
        assert darboux_reconstructs(w, r)
        assert 2 * r.half_rank == form_rank(w, r.neighborhood)

    def test_seed_outside_image_rejected(self):
        coeff = qmat([[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0]])
        w = one_point_form(coeff)
        u = ONE_POINT.index_of(("p",))
        with pytest.raises(BadSeed):
            darboux(w, "p", seed=Section(u, {"p": (F(0), F(0), F(1), F(0))}))

    def test_seed_vanishing_at_point_rejected(self):
        w = one_point_form(J2)
        u = ONE_POINT.index_of(("p",))
        with pytest.raises(BadSeed):
            darboux(w, "p", seed=Section(u, {"p": (F(0), F(0))}))

    def test_abs_normalization_positive_pivot(self):
        w = one_point_form(J2)
        r = darboux(w, "p", abs_normalize=True)
        assert darboux_reconstructs(w, r)

    def test_abs_normalization_negative_pivot_rejected(self):
        w = one_point_form(qmat([[0, -1], [1, 0]]))
        with pytest.raises(ValueError):
            darboux(w, "p", abs_normalize=True)

    def test_abs_normalization_needs_order(self):
        f3 = PrimeField(3)
        e = FreeModuleSheaf(ONE_POINT, f3, 2)
        j = Matrix.from_rows(f3, [[f3.zero, f3.one], [-f3.one, f3.zero]])
        w = TwoFormSheaf(e, {"p": j})
        with pytest.raises(ValueError):
            darboux(w, "p", abs_normalize=True)


def _wedge_coeff(field, a, b):
    n = len(a)
    rows = [tuple(a[i] * b[j] - b[i] * a[j] for j in range(n)) for i in range(n)]
    return Matrix.from_rows(field, rows, cols=n)


def reference_reconstructs(w, result):
    """``darboux_reconstructs`` as a sum of one wedge matrix per pair, in
    field arithmetic, compared entrywise with the coefficients."""
    n = w.module.rank
    for y in w.space.member_points(result.neighborhood):
        acc = Matrix.zeros(w.field, n, n)
        for s1, s2 in result.pairs:
            acc = acc + _wedge_coeff(w.field, s1.values[y], s2.values[y])
        if w.coeff[y].entries != acc.entries:
            return False
    return True


def perturbed(result, field, rng):
    """The result with one entry of one pair's first member moved by one at
    one point: at an index where the second member b vanishes, or anywhere
    when it vanishes nowhere, so that the added e_i ^ b is nonzero."""
    k = rng.randrange(len(result.pairs))
    s1, s2 = result.pairs[k]
    y = rng.choice(sorted(s1.values))
    i = next((i for i, c in enumerate(s2.values[y]) if not c), 0)
    a = list(s1.values[y])
    a[i] = a[i] + field.one
    pairs = list(result.pairs)
    pairs[k] = (Section(s1.over, {**s1.values, y: tuple(a)}), s2)
    return DarbouxResult(result.at, result.neighborhood, pairs,
                         result.half_rank, result.pivots, result.permutation)


class TestDarbouxReconstructsDifferential:
    """The one-product check against the pair-by-pair wedge sum, on true
    results of plain and seeded ``darboux`` and on broken ones."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                       PrimeField(10007)], ids=str)
    def test_matches_reference(self, field, n):
        rng = random.Random("darboux-differential:%s:%d" % (field, n))
        verdicts = []
        for _ in range(4):
            space = rand_space(rng, 3)
            e = FreeModuleSheaf(space, field, n)
            w = rand_rankwise_form(e, rng, 2 * rng.randint(1, n // 2))
            x = rng.choice(space.points)
            results = [darboux(w, x)]
            probe = nowhere_zero_lowered_covector(w, x)
            if probe is not None:
                results.append(darboux(w, x, seed=probe))
            for res in results:
                assert darboux_reconstructs(w, res)
                assert reference_reconstructs(w, res)
                broken = perturbed(res, field, rng)
                verdicts.append((darboux_reconstructs(w, broken),
                                 reference_reconstructs(w, broken)))
        assert verdicts and all(v == (False, False) for v in verdicts)


class TestClassify:
    def setup_method(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 4)
        self.sm = SymplecticModule(e, standard_form(e))

    def test_zero_submodule(self):
        c = classify(self.sm, zero_submodule(self.sm.module))
        assert c.isotropic and not c.coisotropic and not c.lagrangian

    def test_full_submodule(self):
        c = classify(self.sm, full_submodule(self.sm.module))
        assert c.coisotropic and c.symplectic_sub and not c.isotropic

    def test_lagrangian_plane(self):
        L = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0]])})
        c = classify(self.sm, L)
        assert c.lagrangian and c.isotropic and c.coisotropic
        assert not c.symplectic_sub
        g = c.isotropic_complement.stalks["p"]
        from sheafplectic.exactalg import subspace_intersection, subspace_sum
        assert subspace_sum(L.stalks["p"], g) == Subspace.full(QQ, 4)
        assert subspace_intersection(L.stalks["p"], g).dim == 0

    def test_consistency_flags(self):
        rng = random.Random(13)
        for _ in range(20):
            k = rng.randint(0, 4)
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(k)]
            f = SubmoduleSheaf(self.sm.module, {"p": qspan(4, rows)})
            c = classify(self.sm, f)
            if c.lagrangian:
                assert c.isotropic and c.coisotropic
            if c.symplectic_sub:
                perp = form_perp(self.sm, f)
                from sheafplectic.exactalg import subspace_intersection
                assert subspace_intersection(f.stalks["p"],
                                             perp.stalks["p"]).dim == 0

    def test_lagrangian_iff_isotropic_half_dim(self):
        rng = random.Random(17)
        for _ in range(20):
            k = rng.randint(0, 4)
            rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(k)]
            f = SubmoduleSheaf(self.sm.module, {"p": qspan(4, rows)})
            c = classify(self.sm, f)
            half = c.isotropic and f.stalks["p"].dim == 2
            assert c.lagrangian == half
            if c.lagrangian:
                assert c.isotropic_complement is not None


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_classify_flags_are_the_definitions(field, rng):
    """F isotropic, co-isotropic, symplectic or Lagrangian: F <= F^w,
    F^w <= F, F meet F^w = 0 or F == F^w.  The sub-sheaves are random
    stalks, a co-isotropic sub-sheaf, a Lagrangian, or the orthogonal of
    one of these."""
    e = FreeModuleSheaf(rand_space(rng, 3), field, 2 * rng.randint(1, 2))
    sm = SymplecticModule(e, standard_form(e))
    f = rng.choice([rand_stalks(e, rng),
                    *rand_coisotropic_with_lagrangian(e, rng)])
    if rng.random() < 0.5:
        f = form_perp(sm, f)
    perp = form_perp(sm, f)
    c = classify(sm, f)
    assert (c.isotropic, c.coisotropic, c.symplectic_sub, c.lagrangian) == (
        f <= perp, perp <= f,
        intersect_submodules([f, perp]) == zero_submodule(e), f == perp)


class TestLagrangianComplement:
    def test_j2_line(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        sm = SymplecticModule(e, standard_form(e))
        f = SubmoduleSheaf(e, {"p": qspan(2, [[1, 0]])})
        g = lagrangian_complement(sm, f)
        assert g.stalks["p"] == qspan(2, [[0, 1]])

    def test_j4_plane_deterministic(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 4)
        sm = SymplecticModule(e, standard_form(e))
        f = SubmoduleSheaf(e, {"p": qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0]])})
        g = lagrangian_complement(sm, f)
        assert g.stalks["p"] == qspan(4, [[0, 1, 0, 0], [0, 0, 0, 1]])

    def test_not_lagrangian(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 4)
        sm = SymplecticModule(e, standard_form(e))
        f = SubmoduleSheaf(e, {"p": qspan(4, [[1, 0, 0, 0]])})
        with pytest.raises(NotLagrangian):
            lagrangian_complement(sm, f)


def reference_isotropic_complement(sm, f):
    """The complement by the same rule as ``lagrangian_complement``, with
    the orthogonal of the chosen vectors taken as ``orthogonal_complement``
    of their span."""
    field, n = sm.module.field, sm.module.rank
    stalks = {}
    for x in sm.module.space.points:
        chosen = []
        running = f.stalks[x]
        while running.dim < n:
            candidates = orthogonal_complement(Subspace.span(field, n, chosen),
                                               sm.form.coeff[x]).basis
            columns = running.basis + candidates
            _, pivots = rref(field, list(zip(*columns)), len(columns))
            chosen.append(candidates[pivots[running.dim] - running.dim])
            running = Subspace.span(field, n, running.basis + (chosen[-1],))
        stalks[x] = Subspace.span(field, n, chosen)
    return stalks


class TestIsotropicComplementDifferential:
    """The complement of ``classify`` and ``lagrangian_complement`` against
    the reference, on the standard Lagrangian and on twisted ones."""

    @pytest.mark.parametrize("n", range(2, 9, 2))
    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3),
                                       PrimeField(10007)], ids=str)
    def test_matches_reference(self, field, n):
        rng = random.Random("complement-differential:%s:%d" % (field, n))
        e = FreeModuleSheaf(rand_space(rng, 3), field, n)
        sm = SymplecticModule(e, standard_form(e))
        standard = Subspace.span(field, n, [
            tuple(field.one if i == 2 * k else field.zero for i in range(n))
            for k in range(n // 2)])
        lagrangians = [SubmoduleSheaf(e, {x: standard
                                          for x in e.space.points})]
        lagrangians += [rand_coisotropic_with_lagrangian(e, rng)[1]
                        for _ in range(3)]
        for g in lagrangians:
            expected = reference_isotropic_complement(sm, g)
            c = classify(sm, g)
            assert c.lagrangian
            built = lagrangian_complement(sm, g)
            for x in e.space.points:
                assert c.isotropic_complement.stalks[x] == expected[x]
                assert built.stalks[x] == expected[x]


class TestReduce:
    def setup_method(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 4)
        self.sm = SymplecticModule(e, standard_form(e))

    def test_full_recovers_module(self):
        red = reduce(self.sm, full_submodule(self.sm.module))
        assert red.reduced_dim("p") == 4
        assert red.reduced_form["p"].entries == self.sm.form.coeff["p"].entries

    def test_lagrangian_reduces_to_zero(self):
        L = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0]])})
        red = reduce(self.sm, L)
        assert red.reduced_dim("p") == 0

    def test_coisotropic_hyperplane(self):
        f = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])})
        assert classify(self.sm, f).coisotropic
        red = reduce(self.sm, f)
        perp = form_perp(self.sm, f)
        assert red.reduced_dim("p") == f.stalks["p"].dim - perp.stalks["p"].dim == 2
        assert rank_of(red.reduced_form["p"]) == 2

    def test_reduced_form_evaluates_as_a_pairing(self):
        # as ReducedModule's docstring says: the reduced form is a pairing of
        # the quotient with itself, over the quotient's field
        f = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])})
        red = reduce(self.sm, f)
        form = PairingSheaf(red.quotient, red.quotient, red.reduced_form)
        assert form.field == red.quotient.field == QQ
        first = Section(1, {"p": (F(1), F(0))})
        second = Section(1, {"p": (F(0), F(1))})
        assert form.evaluate(first, second) == \
            {"p": red.reduced_form["p"].entries[0][1]}
        assert form.evaluate(first, second)["p"] != 0

    def test_representative_independence(self):
        rng = random.Random(21)
        f = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])})
        red = reduce(self.sm, f)
        core = form_perp(self.sm, f).stalks["p"]  # = f cap f-perp here
        u = ONE_POINT.index_of(("p",))
        for _ in range(10):
            s = [F(rng.randint(-3, 3)) for _ in range(4)]
            t = [F(rng.randint(-3, 3)) for _ in range(4)]
            # project both into f by dropping the e4 coordinate
            s[3] = F(0)
            t[3] = F(0)
            zc = F(rng.randint(-3, 3))
            z = [zc * a for a in core.basis[0]]
            w = self.sm.form
            s_sec = Section(u, {"p": tuple(s)})
            t_sec = Section(u, {"p": tuple(t)})
            t_shift = Section(u, {"p": tuple(a + b for a, b in zip(t, z))})
            assert w.evaluate(s_sec, t_sec) == w.evaluate(s_sec, t_shift)

    def test_reduce_does_not_require_coisotropy(self):
        f = SubmoduleSheaf(self.sm.module, {"p": qspan(4, [[1, 0, 0, 0]])})
        red = reduce(self.sm, f)  # isotropic line: core is the line itself
        assert red.reduced_dim("p") == 0

    def test_parent_mismatch(self):
        other = FreeModuleSheaf(ONE_POINT, QQ, 2)
        with pytest.raises(ParentMismatch):
            reduce(self.sm, full_submodule(other))


class TestReduceLagrangian:
    def setup_method(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 4)
        self.sm = SymplecticModule(e, standard_form(e))
        self.L = SubmoduleSheaf(e, {"p": qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0]])})

    def test_full_coisotropic(self):
        res = reduce_lagrangian(self.sm, full_submodule(self.sm.module), self.L)
        assert res.stalks["p"].dim == 2
        b = res.stalks["p"].matrix()
        assert (b @ res.reduction.reduced_form["p"] @ b.transpose()).is_zero()

    def test_lagrangian_denominator_gives_zero(self):
        res = reduce_lagrangian(self.sm, self.L, self.L)
        assert res.reduction.reduced_dim("p") == 0
        assert res.stalks["p"].dim == 0

    def test_hyperplane(self):
        f = SubmoduleSheaf(self.sm.module,
                           {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0]])})
        res = reduce_lagrangian(self.sm, f, self.L)
        assert res.stalks["p"].dim == 1
        b = res.stalks["p"].matrix()
        assert (b @ res.reduction.reduced_form["p"] @ b.transpose()).is_zero()

    def test_not_coisotropic(self):
        f = SubmoduleSheaf(self.sm.module, {"p": qspan(4, [[1, 0, 0, 0]])})
        with pytest.raises(NotCoisotropic):
            reduce_lagrangian(self.sm, f, self.L)

    def test_not_lagrangian(self):
        g = SubmoduleSheaf(self.sm.module, {"p": qspan(4, [[1, 0, 0, 0]])})
        with pytest.raises(NotLagrangian):
            reduce_lagrangian(self.sm, full_submodule(self.sm.module), g)
