import random

import pytest

from sheafplectic.exactalg import Matrix, PrimeField, QQ, Subspace, rank_of
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    SubmoduleSheaf,
    full_submodule,
    zero_submodule,
)
from sheafplectic.pairing import PairingSheaf, annihilator
from sheafplectic.sheaf import (
    constant_presheaf,
    sections_presheaf,
    check_completeness,
)
from sheafplectic.space import FiniteSpace, discrete

from oracle import (
    BudgetExceeded,
    enum_annihilator,
    enum_gluing_check,
    enum_rank,
    enum_submodule_sections,
    recompute_rank_via_minors,
)

F2 = PrimeField(2)
ONE_POINT = FiniteSpace(("p",), [(), ("p",)])


def f2mat(rows):
    return Matrix.from_rows(F2, [[F2.from_int(a) for a in r] for r in rows])


def f2span(n, rows):
    return Subspace.span(F2, n, [[F2.from_int(a) for a in r] for r in rows])


def section_set(sections):
    return {(s.over, tuple(sorted(s.values.items()))) for s in sections}


class TestEnumAnnihilator:
    def test_zero_submodule_gives_everything(self):
        e = FreeModuleSheaf(ONE_POINT, F2, 2)
        p = PairingSheaf(e, e, {"p": Matrix.identity(F2, 2)})
        u = ONE_POINT.index_of(("p",))
        assert len(enum_annihilator(p, zero_submodule(e), u)) == 4

    def test_full_submodule_nondegenerate_gives_zero(self):
        e = FreeModuleSheaf(ONE_POINT, F2, 2)
        p = PairingSheaf(e, e, {"p": Matrix.identity(F2, 2)})
        u = ONE_POINT.index_of(("p",))
        out = enum_annihilator(p, full_submodule(e), u)
        assert len(out) == 1 and out[0].is_zero()

    def test_j2_line_matches_exact_path(self):
        e = FreeModuleSheaf(ONE_POINT, F2, 2)
        j2 = f2mat([[0, 1], [1, 0]])  # skew = symmetric in characteristic 2
        p = PairingSheaf(e, e, {"p": j2})
        g = SubmoduleSheaf(e, {"p": f2span(2, [[1, 0]])})
        u = ONE_POINT.index_of(("p",))
        brute = enum_annihilator(p, g, u)
        assert len(brute) == 2  # zero and the lone dual vector
        exact = annihilator(p, g)
        assert section_set(brute) == section_set(enum_submodule_sections(exact, u))

    def test_budget(self):
        e = FreeModuleSheaf(ONE_POINT, F2, 4)
        p = PairingSheaf(e, e, {"p": Matrix.identity(F2, 4)})
        with pytest.raises(BudgetExceeded):
            enum_annihilator(p, zero_submodule(e), ONE_POINT.index_of(("p",)))

    def test_rationals_rejected(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        from sheafplectic.pairing import canonical_pairing
        with pytest.raises(BudgetExceeded):
            enum_annihilator(canonical_pairing(e), zero_submodule(e),
                             ONE_POINT.index_of(("p",)))


class TestEnumGluing:
    def test_free_coefficients_glue_uniquely(self):
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, F2, 1)
        p = sections_presheaf(full_submodule(e))
        u = sp.index_of(("a", "b"))
        rep = enum_gluing_check(p, u)
        assert rep.ok
        split = {tuple(sorted(tuple(sorted(sp.opens[m])) for m in cov.members)):
                 (compat, glued) for cov, compat, glued in rep.per_cover}
        assert split[(("a",), ("b",))] == (4, 4)  # all four families glue

    def test_constant_presheaf_fails(self):
        sp = discrete(("a", "b"))
        p = constant_presheaf(sp, F2, 1)
        u = sp.index_of(("a", "b"))
        rep = enum_gluing_check(p, u)
        assert not rep.s2_ok
        split = {tuple(sorted(tuple(sorted(sp.opens[m])) for m in cov.members)):
                 (compat, glued) for cov, compat, glued in rep.per_cover}
        assert split[(("a",), ("b",))] == (4, 2)  # only the diagonal glues

    def test_empty_cover_vacuous(self):
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, F2, 1)
        p = sections_presheaf(full_submodule(e))
        rep = enum_gluing_check(p, sp.index_of(()))
        assert rep.ok

    def test_verdict_matches_main_checker(self):
        sp = discrete(("a", "b"))
        for p in (sections_presheaf(full_submodule(FreeModuleSheaf(sp, F2, 2))),
                  constant_presheaf(sp, F2, 1)):
            main = check_completeness(p)
            for u in range(len(sp.opens)):
                rep = enum_gluing_check(p, u)
                if not rep.s2_ok:
                    assert main.s2 is not None


class TestMinorRank:
    def test_identity(self):
        assert recompute_rank_via_minors(Matrix.identity(QQ, 3)) == 3

    def test_zero(self):
        assert recompute_rank_via_minors(Matrix.zeros(QQ, 3, 3)) == 0

    def test_block_with_padding(self):
        from fractions import Fraction as F
        m = Matrix.from_rows(QQ, [[F(a) for a in r] for r in
                                  [[0, 1, 0, 0], [-1, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]]])
        assert recompute_rank_via_minors(m) == 2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            recompute_rank_via_minors(Matrix.zeros(QQ, 7, 7))

    def test_agrees_with_elimination_on_random_rationals(self):
        from fractions import Fraction as F
        rng = random.Random(23)
        for _ in range(30):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            m = Matrix.from_rows(QQ, [[F(rng.randint(-3, 3)) for _ in range(c)]
                                      for _ in range(r)])
            assert recompute_rank_via_minors(m) == rank_of(m)


class TestEnumRank:
    def test_agrees_with_elimination(self):
        rng = random.Random(29)
        for field in (F2, PrimeField(3)):
            for _ in range(20):
                r, c = rng.randint(1, 3), rng.randint(1, 3)
                m = Matrix.from_rows(field, [[field.from_int(rng.randint(0, 4))
                                              for _ in range(c)]
                                             for _ in range(r)])
                assert enum_rank(m) == rank_of(m)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enum_rank(Matrix.zeros(F2, 4, 4))


class TestSubmoduleEnumeration:
    def test_counts_are_exponential_in_dim(self):
        sp = discrete(("a", "b"))
        e = FreeModuleSheaf(sp, F2, 2)
        f = SubmoduleSheaf(e, {"a": f2span(2, [[1, 0]]), "b": f2span(2, [])})
        u = sp.index_of(("a", "b"))
        assert len(enum_submodule_sections(f, u)) == 2  # 2^(1+0)

    def test_budget_points(self):
        sp = discrete(("a", "b", "c", "d"))
        e = FreeModuleSheaf(sp, F2, 1)
        with pytest.raises(BudgetExceeded):
            enum_submodule_sections(full_submodule(e),
                                    sp.index_of(("a", "b", "c", "d")))


class TestEnumerationAgreesWithMainPath:
    """Span-set comparisons for the remaining kernel operations."""

    def setup_method(self):
        self.rng = random.Random(31)

    def rand_f2mat(self, r, c):
        return f2mat([[self.rng.randint(0, 1) for _ in range(c)]
                      for _ in range(r)])

    def span_members(self, sub):
        import itertools
        out = set()
        for coeffs in itertools.product(F2.elements(), repeat=sub.dim):
            vec = [F2.zero] * sub.ambient_dim
            for co, row in zip(coeffs, sub.basis):
                vec = [a + co * b for a, b in zip(vec, row)]
            out.add(tuple(vec))
        return out

    def test_subspace_sum(self):
        from sheafplectic.exactalg import subspace_sum
        for _ in range(15):
            a = f2span(3, [[self.rng.randint(0, 1) for _ in range(3)]
                           for _ in range(self.rng.randint(0, 3))])
            b = f2span(3, [[self.rng.randint(0, 1) for _ in range(3)]
                           for _ in range(self.rng.randint(0, 3))])
            brute = {tuple(x + y for x, y in zip(u, v))
                     for u in self.span_members(a) for v in self.span_members(b)}
            assert brute == self.span_members(subspace_sum(a, b))

    def test_kernel(self):
        import itertools
        from sheafplectic.exactalg import kernel_basis
        for _ in range(15):
            m = self.rand_f2mat(self.rng.randint(1, 3), 3)
            brute = {v for v in itertools.product(F2.elements(), repeat=3)
                     if not any(m.mat_vec(v))}
            assert brute == self.span_members(kernel_basis(m))

    def test_solve_existence(self):
        import itertools
        from sheafplectic.exactalg import solve
        for _ in range(15):
            m = self.rand_f2mat(2, 3)
            rhs = tuple(F2.from_int(self.rng.randint(0, 1)) for _ in range(2))
            brute = [v for v in itertools.product(F2.elements(), repeat=3)
                     if tuple(m.mat_vec(v)) == rhs]
            got = solve(m, rhs)
            assert (got is not None) == bool(brute)
            if got is not None:
                assert tuple(m.mat_vec(got)) == rhs
