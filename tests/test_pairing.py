import random
from fractions import Fraction as F

import pytest

from sheafplectic.exactalg import (
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    kernel_basis,
    rank_of,
)
from sheafplectic.modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    ParentMismatch,
    Section,
    SubmoduleSheaf,
    full_submodule,
    quotient,
    sections_basis,
    zero_submodule,
)
from sheafplectic.pairing import (
    Degenerate,
    HomExactnessReport,
    NotInvariant,
    OpenHomReport,
    PairingSheaf,
    annihilator,
    canonical_pairing,
    check_hom_exactness,
    induced_endomorphism,
    induced_pairing,
    is_nondegenerate,
    left_annihilator,
    quotient_dual_iso,
    theta,
    transpose_endomorphism,
)
from sheafplectic.sheaf import make_section, restrict_section
from sheafplectic.space import FiniteSpace, discrete, sierpinski
from sheafplectic.suites import rand_space, rand_stalks

ONE_POINT = FiniteSpace(("p",), [(), ("p",)])
THREE_POINTS = discrete(("a", "b", "c"))


def qmat(rows):
    return Matrix.from_rows(QQ, [[F(a) for a in r] for r in rows])


def qspan(n, rows):
    return Subspace.span(QQ, n, [[F(a) for a in r] for r in rows])


J2 = qmat([[0, 1], [-1, 0]])
J4 = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def one_point_pairing(gram):
    e = FreeModuleSheaf(ONE_POINT, QQ, gram.rows)
    f = FreeModuleSheaf(ONE_POINT, QQ, gram.cols)
    return PairingSheaf(e, f, {"p": gram})


def rand_qmat(rng, r, c):
    return qmat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])


def rand_invertible(rng, n):
    while True:
        m = rand_qmat(rng, n, n)
        if rank_of(m) == n:
            return m


class TestNondegeneracy:
    def test_identity(self):
        assert is_nondegenerate(one_point_pairing(Matrix.identity(QQ, 3))).ok

    def test_zero_gram(self):
        res = is_nondegenerate(one_point_pairing(Matrix.zeros(QQ, 2, 2)))
        assert not res.ok
        assert res.witness.values["p"] in ((F(1), F(0)), (F(0), F(1)))

    def test_diag_1_0(self):
        res = is_nondegenerate(one_point_pairing(qmat([[1, 0], [0, 0]])))
        assert not res.ok
        assert res.witness.values["p"] == (F(0), F(1))

    def test_rectangular_never_nondegenerate(self):
        assert not is_nondegenerate(one_point_pairing(qmat([[1, 0]]))).ok

    def test_left_side_witness(self):
        # a rank-2 sheaf paired with a rank-1 one: the 2x1 gram has full
        # column rank, so only a left vector is killed
        space = sierpinski()
        e2 = FreeModuleSheaf(space, QQ, 2)
        e1 = FreeModuleSheaf(space, QQ, 1)
        g = qmat([[1], [2]])
        res = is_nondegenerate(PairingSheaf(e2, e1, {"a": g, "b": g}))
        assert (res.ok, res.point, res.side) == (False, "a", "left")
        assert res.witness.over == space.minimal_open("a")
        v = res.witness.values["a"]
        assert any(v) and len(v) == 2
        assert not any(g.vec_mat(v))


class TestTheta:
    def test_identity_gram(self):
        p = one_point_pairing(Matrix.identity(QQ, 2))
        assert theta(p).mats["p"].entries == Matrix.identity(QQ, 2).entries

    def test_j2(self):
        th = theta(one_point_pairing(J2))
        assert th.mats["p"].mat_vec((F(1), F(0))) == (F(0), F(-1))
        assert th.mats["p"].mat_vec((F(0), F(1))) == (F(1), F(0))

    def test_degenerate_raises(self):
        with pytest.raises(Degenerate):
            theta(one_point_pairing(qmat([[1, 0], [0, 0]])))

    def test_natural_with_restriction(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        p = PairingSheaf(e, e, {"a": J2, "b": qmat([[0, 2], [-2, 0]])})
        th = theta(p)
        uab = sp.index_of(("a", "b"))
        ua = sp.index_of(("a",))
        t = make_section(e, uab, {"a": (F(1), F(2)), "b": (F(3), F(4))})
        lhs = restrict_section(sp, th.apply(t), ua)
        rhs = th.apply(restrict_section(sp, t, ua))
        assert lhs == rhs


class TestAnnihilator:
    def test_zero_submodule(self):
        p = one_point_pairing(J4)
        g = zero_submodule(p.left)
        assert annihilator(p, g).stalks["p"] == Subspace.full(QQ, 4)

    def test_full_submodule_nondegenerate(self):
        p = one_point_pairing(J4)
        assert annihilator(p, full_submodule(p.left)).stalks["p"].dim == 0

    def test_lagrangian_plane_self_annihilating(self):
        p = one_point_pairing(J4)
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0]])})
        assert annihilator(p, g).stalks["p"] == g.stalks["p"]

    def test_section_level_identity(self):
        # the annihilator's sections over U are exactly the sections killed
        # by every section of the sub-sheaf over U (checked by F_2 exhaustion)
        f2 = PrimeField(2)
        sp = sierpinski()
        e = FreeModuleSheaf(sp, f2, 2)
        j2 = Matrix.from_rows(f2, [[f2.zero, f2.one], [f2.one, f2.zero]])
        p = PairingSheaf(e, e, {"a": j2, "b": j2})
        g = SubmoduleSheaf(e, {"a": Subspace.span(f2, 2, [(f2.one, f2.zero)]),
                               "b": Subspace.span(f2, 2, [])})
        perp = annihilator(p, g)
        from oracle import enum_annihilator, enum_submodule_sections
        u = sp.index_of(("a", "b"))
        brute = enum_annihilator(p, g, u)
        spanned = enum_submodule_sections(perp, u)
        assert {tuple(sorted(s.values.items())) for s in brute} == \
               {tuple(sorted(s.values.items())) for s in spanned}

    def test_parent_mismatch(self):
        p = one_point_pairing(J4)
        other = FreeModuleSheaf(ONE_POINT, QQ, 3)
        with pytest.raises(ParentMismatch):
            annihilator(p, full_submodule(other))


class TestMainTheoremParts:
    def setup_method(self):
        self.rng = random.Random(11)
        self.p = one_point_pairing(rand_invertible(self.rng, 4))

    def rand_sub(self):
        k = self.rng.randint(0, 4)
        rows = [[self.rng.randint(-2, 2) for _ in range(4)] for _ in range(k)]
        return SubmoduleSheaf(self.p.left, {"p": qspan(4, rows)})

    def test_dimension_formula(self):
        for _ in range(10):
            g = self.rand_sub()
            perp = annihilator(self.p, g)
            u = ONE_POINT.index_of(("p",))
            assert len(sections_basis(g, u)) + len(sections_basis(perp, u)) == 4

    def test_double_perp(self):
        for _ in range(10):
            g = self.rand_sub()
            back = left_annihilator(self.p, annihilator(self.p, g))
            assert back.stalks["p"] == g.stalks["p"]

    def test_de_morgan_laws(self):
        from sheafplectic.modsheaf import intersect_submodules, sum_submodules
        for _ in range(10):
            g, h = self.rand_sub(), self.rand_sub()
            s = sum_submodules([g, h])
            lhs = annihilator(self.p, s)
            rhs = intersect_submodules([annihilator(self.p, g),
                                        annihilator(self.p, h)])
            assert lhs.stalks["p"] == rhs.stalks["p"]
            i = intersect_submodules([g, h])
            lhs2 = annihilator(self.p, i)
            rhs2 = sum_submodules([annihilator(self.p, g),
                                   annihilator(self.p, h)])
            assert lhs2.stalks["p"] == rhs2.stalks["p"]

    def test_inclusion_reversal_and_injectivity(self):
        from sheafplectic.modsheaf import sum_submodules
        for _ in range(10):
            g = self.rand_sub()
            h = sum_submodules([g, self.rand_sub()])
            pg = annihilator(self.p, g)
            ph = annihilator(self.p, h)
            assert ph.stalks["p"].is_subspace_of(pg.stalks["p"])
            if g.stalks["p"] != h.stalks["p"]:
                assert pg.stalks["p"] != ph.stalks["p"]

    def test_direct_sum_splitting(self):
        from sheafplectic.exactalg import subspace_intersection, subspace_sum
        m = rand_invertible(self.rng, 4)
        for k in range(5):
            g = SubmoduleSheaf(self.p.left, {"p": qspan(4, m.entries[:k])})
            h = SubmoduleSheaf(self.p.left, {"p": qspan(4, m.entries[k:])})
            pg = annihilator(self.p, g).stalks["p"]
            ph = annihilator(self.p, h).stalks["p"]
            assert subspace_sum(pg, ph) == Subspace.full(QQ, 4)
            assert subspace_intersection(pg, ph).dim == 0


class TestTranspose:
    def test_identity(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 3)
        m = MorphismSheaf.identity_on(e)
        assert m.transpose().mats["p"].entries == m.mats["p"].entries

    def test_kernel_is_image_perp(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        m = MorphismSheaf(e, e, {"p": qmat([[1, 0], [0, 0]])})
        tm = m.transpose()
        from sheafplectic.exactalg import kernel_basis
        ker = kernel_basis(tm.mats["p"])
        image = Subspace.span(QQ, 2, [m.mats["p"].mat_vec(v)
                                      for v in ((F(1), F(0)), (F(0), F(1)))])
        perp = annihilator(canonical_pairing(e),
                           SubmoduleSheaf(e, {"p": image})).stalks["p"]
        assert ker == perp == qspan(2, [[0, 1]])

    def test_laws(self):
        rng = random.Random(5)
        e = FreeModuleSheaf(ONE_POINT, QQ, 3)
        for _ in range(10):
            a = MorphismSheaf(e, e, {"p": rand_qmat(rng, 3, 3)})
            b = MorphismSheaf(e, e, {"p": rand_qmat(rng, 3, 3)})
            assert (a + b).transpose().mats["p"].entries == \
                (a.transpose() + b.transpose()).mats["p"].entries
            lhs = b.compose(a).transpose()
            rhs = a.transpose().compose(b.transpose())
            assert lhs.mats["p"].entries == rhs.mats["p"].entries

    def test_inverse_of_transpose(self):
        rng = random.Random(7)
        e = FreeModuleSheaf(ONE_POINT, QQ, 3)
        m = MorphismSheaf(e, e, {"p": rand_invertible(rng, 3)})
        lhs = m.transpose().inverse()
        rhs = m.inverse().transpose()
        assert lhs.mats["p"].entries == rhs.mats["p"].entries


class TestTransposeEndomorphism:
    def test_identity(self):
        p = one_point_pairing(J2)
        s = MorphismSheaf.identity_on(p.left)
        t = transpose_endomorphism(p, s)
        assert t.mats["p"].entries == Matrix.identity(QQ, 2).entries

    def test_identity_gram_gives_matrix_transpose(self):
        p = one_point_pairing(Matrix.identity(QQ, 2))
        s = MorphismSheaf(p.left, p.left, {"p": qmat([[1, 2], [3, 4]])})
        assert transpose_endomorphism(p, s).mats["p"].entries == \
            qmat([[1, 3], [2, 4]]).entries

    def test_j2_diagonal(self):
        p = one_point_pairing(J2)
        s = MorphismSheaf(p.left, p.left, {"p": qmat([[2, 0], [0, 3]])})
        t = transpose_endomorphism(p, s)
        assert t.mats["p"].entries == qmat([[3, 0], [0, 2]]).entries

    def test_defining_identity_on_basis_pairs(self):
        rng = random.Random(3)
        p = one_point_pairing(rand_invertible(rng, 3))
        s = MorphismSheaf(p.left, p.left, {"p": rand_qmat(rng, 3, 3)})
        t = transpose_endomorphism(p, s)
        g = p.gram["p"]
        # phi(s, T t) == phi(S s, t) for all basis pairs
        assert (g @ t.mats["p"]).entries == (s.mats["p"].transpose() @ g).entries

    def test_degenerate_raises(self):
        p = one_point_pairing(Matrix.zeros(QQ, 2, 2))
        with pytest.raises(Degenerate):
            transpose_endomorphism(p, MorphismSheaf.identity_on(p.left))

    def test_degenerate_names_the_first_degenerate_point(self):
        e = FreeModuleSheaf(THREE_POINTS, QQ, 3)
        p = PairingSheaf(e, e, {"a": Matrix.identity(QQ, 3),
                                "b": qmat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]),
                                "c": Matrix.zeros(QQ, 3, 3)})
        for call in (lambda: transpose_endomorphism(p, MorphismSheaf.identity_on(e)),
                     lambda: induced_endomorphism(p, MorphismSheaf.identity_on(e),
                                                  full_submodule(e))):
            with pytest.raises(Degenerate) as exc:
                call()
            assert str(exc.value) == "pairing is degenerate at 'b'"


class TestInducedPairing:
    def test_full_recovers_original(self):
        p = one_point_pairing(J4)
        ip = induced_pairing(p, full_submodule(p.left))
        assert ip.quotient.stalk_dim("p") == 4
        assert ip.pairing.gram["p"].entries == J4.entries

    def test_j4_line(self):
        p = one_point_pairing(J4)
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 0, 0]])})
        ip = induced_pairing(p, g)
        assert ip.pairing.gram["p"].rows == ip.pairing.gram["p"].cols == 1
        assert rank_of(ip.pairing.gram["p"]) == 1

    def test_representative_independence(self):
        rng = random.Random(9)
        p = one_point_pairing(rand_invertible(rng, 4))
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 2, 0], [0, 1, 0, 0]])})
        ip = induced_pairing(p, g)
        u = ONE_POINT.index_of(("p",))
        for _ in range(10):
            t = tuple(F(rng.randint(-3, 3)) for _ in range(4))
            z_coeffs = [F(rng.randint(-3, 3)) for _ in ip.perp.stalks["p"].basis]
            z = [F(0)] * 4
            for c, row in zip(z_coeffs, ip.perp.stalks["p"].basis):
                z = [a + c * b for a, b in zip(z, row)]
            shifted = tuple(a + b for a, b in zip(t, z))
            for v in g.stalks["p"].basis:
                s = Section(u, {"p": v})
                lhs = p.evaluate(s, Section(u, {"p": t}))["p"]
                rhs = p.evaluate(s, Section(u, {"p": shifted}))["p"]
                assert lhs == rhs


class TestInducedEndomorphism:
    def test_identity(self):
        p = one_point_pairing(J4)
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0]])})
        res = induced_endomorphism(p, MorphismSheaf.identity_on(p.left), g)
        assert res.restricted.mats["p"].entries == Matrix.identity(QQ, 2).entries
        assert res.induced.mats["p"].entries == Matrix.identity(QQ, 2).entries

    def test_not_invariant(self):
        p = one_point_pairing(J4)
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 0, 0]])})
        rot = MorphismSheaf(p.left, p.left, {"p": qmat(
            [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])})
        with pytest.raises(NotInvariant) as exc:
            induced_endomorphism(p, rot, g)
        assert exc.value.point == "p"

    def test_not_invariant_names_the_first_point_and_vector(self):
        # "a" is invariant; at "b" the first basis vector is kept and the
        # second is not, and "c" fails too but comes later
        e = FreeModuleSheaf(THREE_POINTS, QQ, 3)
        g = SubmoduleSheaf(e, {"a": qspan(3, [[1, 0, 0]]),
                               "b": qspan(3, [[1, 1, 0], [0, 0, 1]]),
                               "c": qspan(3, [[0, 1, 0]])})
        s = MorphismSheaf(e, e, {"a": qmat([[1, 0, 0], [0, 2, 0], [0, 0, 3]]),
                                 "b": qmat([[1, 0, 1], [0, 1, 0], [0, 0, 1]]),
                                 "c": qmat([[1, 1, 0], [0, 1, 0], [0, 0, 1]])})
        with pytest.raises(NotInvariant) as exc:
            induced_endomorphism(canonical_pairing(e), s, g)
        assert (exc.value.point, exc.value.vector) == ("b", (F(0), F(0), F(1)))

    def test_block_upper_triangular_example(self):
        p = one_point_pairing(J4)
        a = [[1, 1], [0, 1]]
        s = MorphismSheaf(p.left, p.left, {"p": qmat(
            [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])})
        g = SubmoduleSheaf(p.left, {"p": qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0]])})
        res = induced_endomorphism(p, s, g)  # asserts internally
        assert res.restricted.mats["p"].entries == qmat(a).entries
        t = res.transpose
        for w in res.pairing.perp.stalks["p"].basis:
            assert res.pairing.perp.stalks["p"].contains(t.mats["p"].mat_vec(w))


class TestQuotientDualIso:
    def test_zero_denominator(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        m = quotient_dual_iso(zero_submodule(e))
        assert m.mats["p"].rows == 2 and m.mats["p"].cols == 2

    def test_full_denominator(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        m = quotient_dual_iso(full_submodule(e))
        assert m.mats["p"].cols == 0

    def test_rank3_line(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 3)
        f = SubmoduleSheaf(e, {"p": qspan(3, [[1, 0, 0]])})
        m = quotient_dual_iso(f)
        assert m.mats["p"].cols == 2
        image = Subspace.span(QQ, 3, [m.mats["p"].column(j) for j in range(2)])
        assert image == qspan(3, [[0, 1, 0], [0, 0, 1]])
        for j in range(2):
            functional = m.mats["p"].column(j)
            assert sum(a * b for a, b in zip(functional, (F(1), F(0), F(0)))) == 0


class TestHomExactness:
    def test_zero_denominator(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        probe = FreeModuleSheaf(ONE_POINT, QQ, 1)
        assert check_hom_exactness(zero_submodule(e), probe).ok

    def test_zero_probe(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        f = SubmoduleSheaf(e, {"p": qspan(2, [[1, 0]])})
        rep = check_hom_exactness(f, FreeModuleSheaf(ONE_POINT, QQ, 0))
        assert rep.ok
        assert all(r.dims_into == (0, 0, 0) for r in rep.opens)

    def test_documented_dims(self):
        e = FreeModuleSheaf(ONE_POINT, QQ, 2)
        f = SubmoduleSheaf(e, {"p": qspan(2, [[1, 0]])})
        probe = FreeModuleSheaf(ONE_POINT, QQ, 1)
        rep = check_hom_exactness(f, probe)
        u = ONE_POINT.index_of(("p",))
        r = rep.opens[u]
        assert r.dims_into == (1, 2, 1) and r.ok

    def test_multi_point(self):
        sp = sierpinski()
        e = FreeModuleSheaf(sp, QQ, 2)
        f = SubmoduleSheaf(e, {"a": qspan(2, [[1, 1]]), "b": qspan(2, [])})
        probe = FreeModuleSheaf(sp, QQ, 2)
        assert check_hom_exactness(f, probe).ok


# ---------------------------------------------------------------------------
# reference: the hom modules over each open as flattened matrix families,
# one block-diagonal matrix per map, built column by column from units

def _family_map(field, layout_dom, layout_cod, image_of_unit):
    dom_total = sum(r * c for _, r, c in layout_dom)
    cod_total = sum(r * c for _, r, c in layout_cod)
    cod_offset = {}
    off = 0
    for x, r, c in layout_cod:
        cod_offset[x] = (off, r, c)
        off += r * c
    columns = []
    for x, r, c in layout_dom:
        for i in range(r):
            for j in range(c):
                vec = [field.zero] * cod_total
                img = image_of_unit(x, i, j)
                ox, ir, ic = cod_offset[x]
                for a in range(ir):
                    for b in range(ic):
                        vec[ox + a * ic + b] = img.entries[a][b]
                columns.append(tuple(vec))
    rows = [tuple(col[k] for col in columns) for k in range(cod_total)]
    return Matrix.from_rows(field, rows, cols=dom_total)


def _unit_matrix(field, r, c, i, j):
    rows = [[field.zero] * c for _ in range(r)]
    rows[i][j] = field.one
    return Matrix.from_rows(field, [tuple(row) for row in rows], cols=c)


def ref_check_hom_exactness(f, probe):
    e = f.parent
    field = e.field
    quot = quotient(f)
    reports = []
    for u in range(len(e.space.opens)):
        pts = e.space.member_points(u)
        pr = probe.rank
        lay_f = [(x, f.stalks[x].dim, pr) for x in pts]
        lay_e = [(x, e.rank, pr) for x in pts]
        lay_q = [(x, quot.stalk_dim(x), pr) for x in pts]

        inc = _family_map(
            field, lay_f, lay_e,
            lambda x, i, j: f.stalks[x].matrix().transpose()
            @ _unit_matrix(field, f.stalks[x].dim, pr, i, j))
        push = _family_map(
            field, lay_e, lay_q,
            lambda x, i, j: quot.proj[x] @ _unit_matrix(field, e.rank, pr, i, j))
        into_inj = kernel_basis(inc).dim == 0
        image = Subspace.span(field, inc.rows,
                              [inc.column(j) for j in range(inc.cols)])
        into_exact = image == kernel_basis(push)
        d_into = (inc.cols, inc.rows, push.rows)

        lay_fc = [(x, pr, f.stalks[x].dim) for x in pts]
        lay_ec = [(x, pr, e.rank) for x in pts]
        lay_qc = [(x, pr, quot.stalk_dim(x)) for x in pts]
        pull_q = _family_map(
            field, lay_qc, lay_ec,
            lambda x, i, j: _unit_matrix(field, pr, quot.stalk_dim(x), i, j)
            @ quot.proj[x])
        pull_i = _family_map(
            field, lay_ec, lay_fc,
            lambda x, i, j: _unit_matrix(field, pr, e.rank, i, j)
            @ f.stalks[x].matrix().transpose())
        from_inj = kernel_basis(pull_q).dim == 0
        image2 = Subspace.span(field, pull_q.rows,
                               [pull_q.column(j) for j in range(pull_q.cols)])
        from_exact = image2 == kernel_basis(pull_i)
        d_from = (pull_q.cols, pull_q.rows, pull_i.rows)

        reports.append(OpenHomReport(u, d_into, d_from,
                                     into_inj, into_exact, from_inj, from_exact))
    return HomExactnessReport(reports)


# one point below two others: the space whose minimal opens overlap
V_SPACE = FiniteSpace(("a", "b", "c"),
                      [(), ("a",), ("a", "b"), ("a", "c"), ("a", "b", "c")])


def test_hom_exactness_matches_family_reference():
    """The whole report, every open's dimensions and verdicts, on 300 draws
    over F_2, F_3 and Q: up to four points, rank 0-3, probe rank 0-3."""
    for seed in range(300):
        rng = random.Random(seed)
        space = V_SPACE if rng.random() < 0.2 else rand_space(rng, 4)
        field = rng.choice([PrimeField(2), PrimeField(3), QQ])
        e = FreeModuleSheaf(space, field, rng.randint(0, 3))
        f = rand_stalks(e, rng)
        probe = FreeModuleSheaf(space, field, rng.randint(0, 3))
        assert (check_hom_exactness(f, probe)
                == ref_check_hom_exactness(f, probe)), "seed %d" % seed
