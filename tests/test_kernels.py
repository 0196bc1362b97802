"""The integer kernels of ``exactalg`` against field-generic references.

``rref``, ``Matrix.__matmul__`` and the Darboux replay run on plain ints
inside the library.  The references below are self-contained copies of
the straightforward versions written with field arithmetic on the scalars
themselves; results must agree exactly, scalar type included.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sheafplectic.exactalg import (
    FpElement,
    Matrix,
    PrimeField,
    QQ,
    Subspace,
    coordinates,
    echelon_complement,
    kernel_basis,
    rank_of,
    rref,
    solve,
    subspace_intersection,
    subspace_sum,
)
from sheafplectic.symplectic import _replay

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(10007)]
FIELD_IDS = ["Q", "F2", "F3", "F10007"]

SETTINGS = settings(max_examples=120, deadline=None)


# ---------------------------------------------------------------------------
# references: plain field arithmetic on the scalars

def ref_rref(rows, cols):
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [a / pv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def ref_dot(field, u, v):
    acc = field.zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def ref_matmul(field, a_rows, b_rows, b_cols):
    cols = [tuple(r[j] for r in b_rows) for j in range(b_cols)]
    return tuple(tuple(ref_dot(field, r, c) for c in cols) for r in a_rows)


def ref_replay(field, rows, steps, seed_row, abs_normalize):
    resid = [tuple(r) for r in rows]
    pairs = []
    for step in steps:
        if step[0] == "seed":
            i = step[1]
            p = -seed_row[i]
            if not p:
                return False, pairs, resid
            s1 = tuple(c / p for c in resid[i])
            s2 = tuple(seed_row)
        else:
            i, j = step[1], step[2]
            p = resid[i][j]
            if not p:
                return False, pairs, resid
            norm = field.abs(p) if abs_normalize else p
            s1 = tuple(c / norm for c in resid[i])
            s2 = resid[j]
        pairs.append((s1, s2))
        n = len(resid)
        resid = [tuple(resid[k][m] - (s1[k] * s2[m] - s2[k] * s1[m])
                       for m in range(n)) for k in range(n)]
    return True, pairs, resid


def ref_program(field, rows, seed_row, abs_normalize):
    """The pivot program ``darboux`` derives: the seed step, if any, then
    the first nonzero entry above the diagonal until the residual dies.
    Under |.| a negative pivot leaves its row nonzero, where ``darboux``
    raises; the program stops there."""
    steps = []
    if seed_row is not None:
        steps.append(("seed", next(i for i, c in enumerate(seed_row) if c)))
    while True:
        _, _, resid = ref_replay(field, rows, steps, seed_row, abs_normalize)
        if abs_normalize and steps and steps[-1][0] == "entry" \
                and any(resid[steps[-1][1]]):
            return tuple(steps)
        entry = next(((i, j) for i in range(len(resid))
                      for j in range(i + 1, len(resid)) if resid[i][j]), None)
        if entry is None:
            return tuple(steps)
        steps.append(("entry",) + entry)


# ---------------------------------------------------------------------------
# strategies

def scalars(field):
    if field is QQ:
        small = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
        big = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30))
        return st.one_of(small, big)
    return st.integers(0, field.p - 1).map(field.from_int)


@st.composite
def row_lists(draw, field, max_rows=6, max_cols=6):
    """Rows spanning a random subspace: combinations of a few base rows
    with small coefficients, so rank drops, zero rows and duplicate rows
    all occur; ``(rows, cols)``."""
    cols = draw(st.integers(0, max_cols))
    base = draw(st.lists(st.lists(scalars(field), min_size=cols,
                                  max_size=cols), max_size=4))
    coeff = st.integers(-2, 2).map(field.from_int)
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
            continue
        row = [field.zero] * cols
        for b in base:
            c = draw(coeff)
            row = [a + c * x for a, x in zip(row, b)]
        rows.append(tuple(row))
    return rows, cols


@st.composite
def alternating(draw, field, n):
    upper = iter(draw(st.lists(st.one_of(st.just(field.zero), scalars(field)),
                               min_size=n * (n - 1) // 2,
                               max_size=n * (n - 1) // 2)))
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = next(upper)
            rows[j][i] = -rows[i][j]
    return [tuple(r) for r in rows]


def assert_field_scalars(field, rows):
    for row in rows:
        for a in row:
            if field is QQ:
                assert type(a) is F
            else:
                assert type(a) is FpElement and a.p == field.p


# ---------------------------------------------------------------------------
# rref

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_rref_matches_reference(field, data):
    rows, cols = data.draw(row_lists(field))
    got = rref(field, rows, cols)
    assert got == ref_rref(rows, cols)
    assert_field_scalars(field, got[0])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("rows, cols", [
    ([], 3),                                    # no rows
    ([], 0),
    ([(), ()], 0),                              # rows of width zero
    ([(0, 0, 0)], 3),                           # a zero row
    ([(1, 2, 0), (0, 0, 0), (1, 2, 0)], 3),     # zero and duplicate rows
    ([(2, 1), (2, 1), (2, 1)], 2),              # one row three times
    ([(0, 0), (0, 0)], 2),                      # all zero
], ids=["empty", "empty-cols0", "cols0", "zero-row", "zero-and-duplicate",
        "duplicates", "all-zero"])
def test_rref_edge_cases(field, rows, cols):
    rows = [tuple(field.from_int(a) for a in r) for r in rows]
    got = rref(field, rows, cols)
    assert got == ref_rref(rows, cols)
    assert_field_scalars(field, got[0])


# ---------------------------------------------------------------------------
# matmul

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_matmul_matches_reference(field, data):
    m, k, n = (data.draw(st.integers(0, 5)) for _ in range(3))
    entries = st.lists(scalars(field), min_size=k * (m + n),
                       max_size=k * (m + n))
    flat = data.draw(entries)
    a_rows = [tuple(flat[i * k:(i + 1) * k]) for i in range(m)]
    b_rows = [tuple(flat[m * k + i * n:m * k + (i + 1) * n]) for i in range(k)]
    a = Matrix.from_rows(field, a_rows, cols=k)
    b = Matrix.from_rows(field, b_rows, cols=n)
    got = a @ b
    assert (got.rows, got.cols) == (m, n)
    assert got.entries == ref_matmul(field, a_rows, b_rows, n)
    assert_field_scalars(field, got.entries)


# ---------------------------------------------------------------------------
# the Darboux replay

def check_replay(field, rows, steps, seed_row, abs_normalize):
    ok, pairs, resid = _replay(Matrix.from_rows(field, rows, cols=len(rows)),
                               steps, seed_row, abs_normalize)
    want_ok, want_pairs, want_resid = ref_replay(field, rows, steps, seed_row,
                                                 abs_normalize)
    assert (ok, pairs) == (want_ok, want_pairs)
    assert resid.matrix().entries == tuple(want_resid)
    assert_field_scalars(field, [s for pair in pairs for s in pair])
    assert_field_scalars(field, resid.matrix().entries)
    return ok, resid


def draw_seed_row(data, field, n):
    """None or a seed row with a nonzero entry."""
    if not n or not data.draw(st.booleans()):
        return None
    row = tuple(data.draw(st.lists(scalars(field), min_size=n, max_size=n)))
    return row if any(row) else None


@pytest.mark.parametrize("field, abs_normalize",
                         [(f, False) for f in FIELDS] + [(QQ, True)],
                         ids=FIELD_IDS + ["Q-abs"])
@SETTINGS
@given(data=st.data())
def test_replay_matches_reference(field, abs_normalize, data):
    n = data.draw(st.integers(0, 6))
    a = data.draw(alternating(field, n))
    seed_row = draw_seed_row(data, field, n)
    steps = ref_program(field, a, seed_row, abs_normalize)
    # at the point that fixed the program every pivot survives; without
    # |.| the residual dies there, and at another point the same program
    # may stop early
    ok, resid = check_replay(field, a, steps, seed_row, abs_normalize)
    assert ok and (abs_normalize or resid.is_zero())
    other = data.draw(alternating(field, n))
    other_seed = seed_row and tuple(data.draw(st.lists(
        scalars(field), min_size=n, max_size=n)))
    check_replay(field, other, steps, other_seed, abs_normalize)


def test_replay_abs_program_after_a_negative_pivot():
    # without |.| the program is (0,1),(2,3); under |.| the negative first
    # pivot changes the residual and the second pivot vanishes, so the
    # program must be derived under |.|, as darboux derives it
    a = [[F(c) for c in row] for row in
         [[0, -1, 0, 1], [1, 0, -1, 0], [0, 1, 0, 1], [-1, 0, -1, 0]]]
    plain = ref_program(QQ, a, None, False)
    assert plain == (("entry", 0, 1), ("entry", 2, 3))
    assert check_replay(QQ, a, plain, None, True)[0] is False
    ok, _ = check_replay(QQ, a, ref_program(QQ, a, None, True), None, True)
    assert ok


def test_replay_abs_normalize_needs_an_order():
    f3 = PrimeField(3)
    a = Matrix.from_rows(f3, [(f3.zero, f3.one), (-f3.one, f3.zero)])
    with pytest.raises(TypeError):
        _replay(a, (("entry", 0, 1),), None, True)


# ---------------------------------------------------------------------------
# entries must be the field's scalars

@pytest.mark.parametrize("bad", [2, True, 0.5], ids=["int", "bool", "float"])
def test_rational_kernels_reject_other_numbers(bad):
    with pytest.raises(TypeError):
        Subspace.span(QQ, 2, [[bad, F(1)]])
    with pytest.raises(TypeError):
        rref(QQ, [(F(1), bad)], 2)
    m = Matrix.from_rows(QQ, [(F(1), bad)])
    with pytest.raises(TypeError):
        m @ Matrix.identity(QQ, 2)


def test_span_of_int_rows_over_q_raises():
    with pytest.raises(TypeError):
        Subspace.span(QQ, 2, [[2, 1]])


@pytest.mark.parametrize("bad", [1, F(1), PrimeField(5).one],
                         ids=["int", "fraction", "other-prime"])
def test_prime_field_kernels_reject_other_scalars(bad):
    f3 = PrimeField(3)
    with pytest.raises(TypeError):
        Subspace.span(f3, 2, [[bad, f3.one]])
    m = Matrix.from_rows(f3, [(f3.one, bad)])
    with pytest.raises(TypeError):
        m @ Matrix.identity(f3, 2)


def test_mixed_field_arithmetic_still_raises():
    with pytest.raises(TypeError):
        PrimeField(3).one + PrimeField(5).one


# ---------------------------------------------------------------------------
# kernels: the reference eliminates, then spans the free-variable vectors,
# which are reduced only for the reversed column order, in a second one

def ref_kernel_basis(m):
    reduced, pivots = rref(m.field, m.entries, m.cols)
    field = m.field
    free = [j for j in range(m.cols) if j not in pivots]
    vectors = []
    for f in free:
        v = [field.zero] * m.cols
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        vectors.append(tuple(v))
    return Subspace.span(field, m.cols, vectors)


@st.composite
def kernel_matrices(draw, field):
    """Matrices from 0x0 to 6x6: rows spanning a random subspace (rank
    drops), independent random rows (mostly full rank, wide or tall), or
    all zero."""
    kind = draw(st.sampled_from(["spanned", "random", "zero"]))
    if kind == "spanned":
        rows, cols = draw(row_lists(field))
    else:
        cols = draw(st.integers(0, 6))
        entry = scalars(field) if kind == "random" else st.just(field.zero)
        rows = draw(st.lists(st.tuples(*[entry] * cols), max_size=6))
    return Matrix.from_rows(field, rows, cols=cols)


def check_kernel(m):
    got = kernel_basis(m)
    assert got == ref_kernel_basis(m)
    assert_field_scalars(m.field, got.basis)
    assert got.ambient_dim == m.cols
    assert got.dim == m.cols - rank_of(m)
    zero = (m.field.zero,) * m.rows
    assert all(m.mat_vec(v) == zero for v in got.basis)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_kernel_matches_rref_then_span(field, data):
    check_kernel(data.draw(kernel_matrices(field)))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("rows, cols", [
    ([], 0),                                    # 0x0
    ([], 3),                                    # no rows
    ([(), ()], 0),                              # rows of width zero
    ([(0, 0, 0), (0, 0, 0)], 3),                # zero
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),     # full rank, square
    ([(1, 2, 3, 4, 5), (0, 1, 1, 2, 3)], 5),    # full rank, wide
    ([(1, 2), (3, 4), (5, 7), (1, 1)], 2),      # full rank, tall
    ([(0, 1, 2, 0), (0, 2, 4, 0)], 4),          # rank one, zero columns
], ids=["0x0", "0x3", "2x0", "zero", "square", "wide", "tall", "rank-one"])
def test_kernel_edge_cases(field, rows, cols):
    rows = [tuple(field.from_int(a) for a in r) for r in rows]
    check_kernel(Matrix.from_rows(field, rows, cols=cols))


# ---------------------------------------------------------------------------
# subspace questions: references are the one-solve-per-vector coordinates
# and the kernel-of-kernels intersection they replaced

def ref_coordinates(sub, vectors):
    cols = [solve(sub.matrix().transpose(), tuple(v)) for v in vectors]
    if None in cols:
        return None
    return Matrix.from_rows(sub.field, cols, cols=sub.dim).transpose()


def ref_intersection(a, b):
    stacked = kernel_basis(a.matrix()).basis + kernel_basis(b.matrix()).basis
    return kernel_basis(Matrix.from_rows(a.field, stacked, cols=a.ambient_dim))


def ref_echelon_complement(sub, within):
    coord_rows = [solve(within.matrix().transpose(), v) for v in sub.basis]
    _, pivots = ref_rref(coord_rows, within.dim)
    return Subspace(sub.field, sub.ambient_dim,
                    tuple(w for j, w in enumerate(within.basis) if j not in pivots))


@st.composite
def subspace_pairs(draw, field):
    """Two subspaces of one ambient space (of dimension 0 to 6): random and
    overlapping, or one of them zero, full, equal to or inside the other."""
    rows, n = draw(row_lists(field))
    a = Subspace.span(field, n, rows)
    kind = draw(st.sampled_from(["random", "zero", "full", "equal", "inside"]))
    if kind == "random":
        more = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n),
                             max_size=4))
        b = Subspace.span(field, n, more + rows[:draw(st.integers(0, len(rows)))])
    elif kind == "inside":
        b = Subspace.span(field, n, rows[:draw(st.integers(0, len(rows)))])
    else:
        b = {"zero": Subspace.zero(field, n), "full": Subspace.full(field, n),
             "equal": a}[kind]
    return (a, b) if draw(st.booleans()) else (b, a)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_coordinates_match_solving_per_vector(field, data):
    a, b = data.draw(subspace_pairs(field))
    n = a.ambient_dim
    # the other operand's basis, the zero vector and arbitrary vectors, then
    # vectors of ``a``: its basis and sums of neighbouring basis vectors
    vectors = list(b.basis) + [(field.zero,) * n] + data.draw(st.lists(
        st.tuples(*[scalars(field)] * n), max_size=2))
    inside = list(a.basis) + [tuple(x + y for x, y in zip(u, v))
                              for u, v in zip(a.basis, a.basis[1:])]
    for vs in (vectors, inside, []):
        got = coordinates(a, vs)
        assert got == ref_coordinates(a, vs)
        if got is not None:
            assert (got.rows, got.cols) == (a.dim, len(vs))
            assert_field_scalars(field, got.entries)
    for v in vectors:
        assert a.contains(v) == (ref_coordinates(a, [v]) is not None)
    assert b.is_subspace_of(a) == (ref_coordinates(a, b.basis) is not None)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_intersection_matches_kernel_of_kernels(field, data):
    a, b = data.draw(subspace_pairs(field))
    got = subspace_intersection(a, b)
    assert got == ref_intersection(a, b)
    assert_field_scalars(field, got.basis)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_echelon_complement_matches_solving_per_vector(field, data):
    a, b = data.draw(subspace_pairs(field))
    within = subspace_sum(a, b)
    got = echelon_complement(a, within)
    assert got == ref_echelon_complement(a, within)
    assert echelon_complement(a) == \
        ref_echelon_complement(a, Subspace.full(field, a.ambient_dim))
    assert subspace_sum(a, got) == within
    assert subspace_intersection(a, got).dim == 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("n", [0, 3])
def test_subspace_questions_on_zero_and_full(field, n):
    zero, full = Subspace.zero(field, n), Subspace.full(field, n)
    for a in (zero, full):
        for b in (zero, full):
            assert subspace_intersection(a, b) == ref_intersection(a, b)
            assert echelon_complement(a, subspace_sum(a, b)) == \
                ref_echelon_complement(a, subspace_sum(a, b))
            assert coordinates(a, b.basis) == ref_coordinates(a, b.basis)
    assert coordinates(full, []) == Matrix(field, n, 0, ((),) * n)
    assert coordinates(zero, [(field.zero,) * n]) == Matrix(field, 0, 1, ())
