from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sheafplectic.exactalg import (
    AmbientMismatch,
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    coordinates,
    echelon_complement,
    inverse,
    kernel_basis,
    orthogonal_complement,
    rank_of,
    solve,
    subspace_intersection,
    subspace_sum,
)

from oracle import recompute_rank_via_minors


def qmat(rows):
    return Matrix.from_rows(QQ, [[F(a) for a in r] for r in rows])


def qspan(n, rows):
    return Subspace.span(QQ, n, [[F(a) for a in r] for r in rows])


J4 = qmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


class TestScalars:
    def test_rational_parse(self):
        assert QQ.parse("3/2") == F(3, 2)
        assert QQ.parse("-7") == F(-7)
        assert QQ.parse("4/6") == F(2, 3)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "+3", "a", "1/-2", ""])
    def test_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            QQ.parse(bad)

    def test_prime_field_reduction(self):
        f3 = PrimeField(3)
        assert f3.from_int(7).value == 1
        assert f3.from_int(-1).value == 2
        assert (f3.from_int(2) * f3.from_int(2)).value == 1
        assert (f3.from_int(2) / f3.from_int(2)).value == 1

    def test_rational_format_writes_long_integers_in_full(self):
        # past the interpreter's 4,300-digit limit on str(int); the
        # expected text is built without str(int)
        assert QQ.format(F(10 ** 5000 + 7, 3)) == "1" + "0" * 4999 + "7/3"
        assert QQ.format(F(-10 ** 5000)) == "-1" + "0" * 5000
        assert QQ.format(F(-7, 10 ** 5000)) == "-7/1" + "0" * 5000

    def test_prime_field_element_prints_its_residue(self):
        f7 = PrimeField(7)
        assert str(f7.from_int(-1)) == "6"
        assert str(f7.zero) == "0"

    def test_prime_field_axioms(self):
        f5 = PrimeField(5)
        elems = f5.elements()
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a + b) + c == a + (b + c)
            if a:
                assert a * (f5.one / a) == f5.one

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    @pytest.mark.parametrize("small", [0, 1, -7])
    def test_modulus_below_two_is_not_prime(self, small):
        with pytest.raises(ValueError) as exc:
            PrimeField(small)
        assert str(exc.value) == "modulus %d is not prime" % small

    @pytest.mark.parametrize("bad", [3.0, "3", True])
    def test_modulus_must_be_an_int(self, bad):
        with pytest.raises(TypeError) as exc:
            PrimeField(bad)
        assert str(exc.value) == "modulus %r is not an int" % (bad,)

    def test_fp_division_by_zero(self):
        f2 = PrimeField(2)
        with pytest.raises(ZeroDivisionError):
            f2.one / f2.zero

    def test_no_order_on_fp(self):
        assert QQ.ordered and not PrimeField(3).ordered
        with pytest.raises(TypeError):
            PrimeField(3).zero < PrimeField(3).one


class TestRank:
    def test_identity(self):
        assert rank_of(Matrix.identity(QQ, 2)) == 2

    def test_zero(self):
        assert rank_of(Matrix.zeros(QQ, 3, 3)) == 0

    def test_tall_skew_block(self):
        m = qmat([[0, 1], [-1, 0], [0, 2]])
        assert recompute_rank_via_minors(m) == 2  # independent minor oracle
        assert rank_of(m) == 2


class TestKernel:
    def test_identity(self):
        assert kernel_basis(Matrix.identity(QQ, 4)) == Subspace.zero(QQ, 4)

    def test_zero_matrix(self):
        assert kernel_basis(Matrix.zeros(QQ, 2, 3)) == Subspace.full(QQ, 3)

    def test_multiply_back(self):
        m = qmat([[1, 2, 3]])
        ker = kernel_basis(m)
        assert ker.dim == 2
        for v in ker.basis:
            assert m.mat_vec(v) == (F(0),)

    def test_rank_nullity(self):
        m = qmat([[1, 2, 0], [2, 4, 0]])
        assert rank_of(m) + kernel_basis(m).dim == m.cols


class TestSolve:
    def test_identity(self):
        assert solve(Matrix.identity(QQ, 2), (F(1), F(0))) == (F(1), F(0))

    def test_free_variables_zero(self):
        assert solve(qmat([[1, 1]]), (F(2),)) == (F(2), F(0))

    def test_no_solution(self):
        assert solve(qmat([[1, 0], [0, 0]]), (F(0), F(1))) is None

    def test_inverse(self):
        m = qmat([[2, 1], [1, 1]])
        assert (inverse(m) @ m).entries == Matrix.identity(QQ, 2).entries
        assert inverse(qmat([[1, 1], [1, 1]])) is None


class TestSubspaces:
    def test_canonical_equality(self):
        a = qspan(3, [[1, 1, 0], [0, 1, 0]])
        b = qspan(3, [[2, 0, 0], [3, 3, 0]])
        assert a == b

    def test_sum_with_zero(self):
        a = qspan(3, [[1, 2, 3]])
        assert subspace_sum(a, Subspace.zero(QQ, 3)) == a

    def test_sum_of_axes(self):
        a = qspan(3, [[1, 0, 0]])
        b = qspan(3, [[0, 1, 0]])
        assert subspace_sum(a, b) == qspan(3, [[1, 0, 0], [0, 1, 0]])

    def test_sum_generic(self):
        a = qspan(3, [[1, 1, 0]])
        b = qspan(3, [[1, -1, 0]])
        assert subspace_sum(a, b) == qspan(3, [[1, 0, 0], [0, 1, 0]])

    def test_intersection_with_full(self):
        a = qspan(3, [[1, 2, 3]])
        assert subspace_intersection(a, Subspace.full(QQ, 3)) == a

    def test_intersection_of_axes(self):
        a = qspan(3, [[1, 0, 0]])
        b = qspan(3, [[0, 1, 0]])
        assert subspace_intersection(a, b) == Subspace.zero(QQ, 3)

    def test_intersection_generic_matches_f3_enumeration(self):
        # enumerate both spans over F_3 and intersect the raw sets
        f3 = PrimeField(3)
        def span_set(rows):
            out = set()
            for c0 in f3.elements():
                for c1 in f3.elements():
                    vec = tuple(c0 * a + c1 * b for a, b in zip(rows[0], rows[1]))
                    out.add(vec)
            return out
        rows_a = [tuple(f3.from_int(k) for k in r) for r in [[1, 0, 0], [0, 1, 0]]]
        rows_b = [tuple(f3.from_int(k) for k in r) for r in [[1, 1, 0], [0, 0, 1]]]
        meet = span_set(rows_a) & span_set(rows_b)
        expected = {tuple(f3.from_int(k * c) for k in (1, 1, 0)) for c in range(3)}
        assert meet == expected  # the brute-force sets agree on span((1,1,0))

        got = subspace_intersection(qspan(3, [[1, 0, 0], [0, 1, 0]]),
                                    qspan(3, [[1, 1, 0], [0, 0, 1]]))
        assert got == qspan(3, [[1, 1, 0]])

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatch):
            subspace_sum(qspan(2, [[1, 0]]), qspan(3, [[1, 0, 0]]))

    def test_coordinates_in(self):
        s = qspan(3, [[1, 0, 1], [0, 1, 0]])
        assert coordinates(s, [(F(2), F(3), F(2))]).column(0) == (F(2), F(3))
        assert coordinates(s, [(F(0), F(0), F(1))]) is None


class TestOrthogonalComplement:
    def test_full_invertible_gram(self):
        assert orthogonal_complement(Subspace.full(QQ, 4), J4) == Subspace.zero(QQ, 4)

    def test_zero_subspace(self):
        assert orthogonal_complement(Subspace.zero(QQ, 4), J4) == Subspace.full(QQ, 4)

    def test_symplectic_perp_of_e1_matches_f3_brute_force(self):
        f3 = PrimeField(3)
        j4 = Matrix.from_rows(f3, [[f3.from_int(a) for a in r] for r in
                                   [[0, 1, 0, 0], [-1, 0, 0, 0],
                                    [0, 0, 0, 1], [0, 0, -1, 0]]])
        e1 = tuple(f3.from_int(a) for a in (1, 0, 0, 0))
        brute = set()
        for w0 in f3.elements():
            for w1 in f3.elements():
                for w2 in f3.elements():
                    for w3 in f3.elements():
                        w = (w0, w1, w2, w3)
                        val = f3.zero
                        for i in range(4):
                            for j in range(4):
                                val = val + e1[i] * j4.entries[i][j] * w[j]
                        if not val:
                            brute.add(w)
        assert len(brute) == 27  # a hyperplane over F_3

        perp = orthogonal_complement(qspan(4, [[1, 0, 0, 0]]), J4)
        assert perp == qspan(4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        # every brute-force member is in the lifted span's F_3 analogue
        perp3 = orthogonal_complement(
            Subspace.span(f3, 4, [e1]), j4)
        for w in brute:
            assert perp3.contains(w)

    def test_inclusion_reversing(self):
        a = qspan(4, [[1, 0, 0, 0]])
        b = qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        pa = orthogonal_complement(a, J4)
        pb = orthogonal_complement(b, J4)
        assert pb.is_subspace_of(pa)


class TestEchelonComplement:
    def test_direct_sum(self):
        s = qspan(3, [[1, 1, 0]])
        c = echelon_complement(s)
        assert subspace_sum(s, c) == Subspace.full(QQ, 3)
        assert subspace_intersection(s, c).dim == 0

    def test_within(self):
        within = qspan(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        sub = qspan(4, [[1, 1, 0, 0]])
        c = echelon_complement(sub, within)
        assert c.is_subspace_of(within)
        assert subspace_sum(sub, c) == within
        assert subspace_intersection(sub, c).dim == 0


small_fractions = st.integers(min_value=-4, max_value=4).map(F)


def matrices(max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_fractions, min_size=c, max_size=c),
                min_size=r, max_size=r)))


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_rank_nullity_property(rows):
    m = Matrix.from_rows(QQ, rows)
    assert rank_of(m) + kernel_basis(m).dim == m.cols


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=1, max_size=3),
       st.lists(st.lists(small_fractions, min_size=3, max_size=3), min_size=1, max_size=3))
def test_dimension_formula_property(rows_a, rows_b):
    a = Subspace.span(QQ, 3, rows_a)
    b = Subspace.span(QQ, 3, rows_b)
    lhs = subspace_sum(a, b).dim + subspace_intersection(a, b).dim
    assert lhs == a.dim + b.dim


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_fractions, min_size=4, max_size=4), min_size=1, max_size=3))
def test_double_perp_property(rows):
    s = Subspace.span(QQ, 4, rows)
    assert orthogonal_complement(orthogonal_complement(s, J4), J4) == s


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3), st.lists(small_fractions, min_size=3, max_size=3))
def test_solve_multiplies_back(rows, x):
    m = Matrix.from_rows(QQ, [r[:len(rows[0])] for r in rows])
    x = tuple(x[:m.cols])
    rhs = m.mat_vec(x)
    got = solve(m, rhs)
    assert got is not None
    assert m.mat_vec(got) == rhs
