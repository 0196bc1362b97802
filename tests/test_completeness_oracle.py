"""``check_completeness`` and ``sheafify`` against the enumeration oracle.

The presheaves are random and functorial, over F_2 on two or three
points: the sections of a random stalkwise sub-sheaf, a sub-presheaf of
that (fails S2 in general) and a quotient of either by a sub-presheaf
(fails S1 in general).  The oracle checks both axioms over every
irredundant cover by enumerating sections and families.
"""

import itertools

from hypothesis import given, settings, strategies as st

from sheafplectic.exactalg import (
    Matrix,
    PrimeField,
    Subspace,
    coordinates,
    echelon_complement,
    inverse,
    solve,
)
from sheafplectic.oracle import enum_gluing_check
from sheafplectic.sheaf import (
    ExplicitPresheaf,
    FreeModuleSheaf,
    check_completeness,
    sections_presheaf,
    sheafify,
)
from sheafplectic.space import FiniteSpace
from sheafplectic.suites import rand_stalks

F2 = PrimeField(2)


def rand_space(rng):
    """The opens of a random relation: sets holding everything related to
    each of their points (closed under unions and intersections).  Some
    draws take the V, one point below two others: on three points the only
    space whose largest minimal opens overlap."""
    points = ("a", "b", "c")[:rng.randint(2, 3)]
    below = {x: {y for y in points if y == x or rng.random() < 0.3}
             for x in points}
    if len(points) == 3 and rng.random() < 0.4:
        a, b, c = rng.sample(points, 3)
        below = {a: {a}, b: {a, b}, c: {a, c}}
    subsets = [frozenset(x for i, x in enumerate(points) if k >> i & 1)
               for k in range(2 ** len(points))]
    return FiniteSpace(points, [o for o in subsets
                                if all(below[x] <= o for x in o)])


def rand_closed_subspaces(p, rng):
    """S(V) = sum over U containing V of r_UV(T(U)), with T(U) at most two
    random vectors of P(U); closed under restriction by functoriality."""
    opens = p.space.opens
    t = {u: [tuple(F2.from_int(rng.randint(0, 1)) for _ in range(p.dims[u]))
             for _ in range(rng.randint(0, 2))] for u in range(len(opens))}
    return {v: Subspace.span(F2, p.dims[v], [
        p.restrictions[(u, v)].mat_vec(w)
        for u in range(len(opens)) if opens[v] <= opens[u] for w in t[u]])
        for v in range(len(opens))}


def _presheaf(p, dims, basis, coords):
    """The presheaf with ``basis[u]`` over ``u``, restricting through ``p``."""
    restrictions = {
        (u, v): Matrix.from_rows(F2, [coords(v, r.mat_vec(b)) for b in basis[u]],
                                 cols=dims[v]).transpose()
        for (u, v), r in p.restrictions.items()}
    return ExplicitPresheaf(p.space, F2, dims, restrictions)


def sub_presheaf(p, s):
    return _presheaf(p, [s[u].dim for u in sorted(s)],
                     {u: s[u].basis for u in s},
                     lambda v, vec: coordinates(s[v], [vec]).column(0))


def quotient_presheaf(p, k):
    """P / K, each P(U) / K(U) on the echelon complement of K(U)."""
    comp = {u: echelon_complement(k[u]) for u in k}
    frame = {u: Matrix.from_rows(F2, k[u].basis + comp[u].basis,
                                 cols=p.dims[u]).transpose() for u in k}
    return _presheaf(p, [comp[u].dim for u in sorted(k)],
                     {u: comp[u].basis for u in k},
                     lambda v, vec: solve(frame[v], vec)[k[v].dim:])


def rand_presheaf(rng):
    e = FreeModuleSheaf(rand_space(rng), F2, rng.randint(1, 2))
    p = sections_presheaf(rand_stalks(e, rng))
    if rng.random() < 0.7:
        p = sub_presheaf(p, rand_closed_subspaces(p, rng))
    if rng.random() < 0.6:
        p = quotient_presheaf(p, rand_closed_subspaces(p, rng))
    return p


def sections(p, u):
    return itertools.product(F2.elements(), repeat=p.dims[u])


def first_open(reps, fails):
    return next((u for u, r in enumerate(reps) if fails(r)), None)


def open_of(counterexample):
    return None if counterexample is None else counterexample.open


def assert_witnesses_hold(p, main):
    for c in (main.s1, main.s2):
        if c is not None:
            assert frozenset().union(*(p.space.opens[m] for m in c.cover.members)) \
                == p.space.opens[c.open]
    if main.s1 is not None:
        assert any(main.s1.section)
        assert not any(a for m in main.s1.cover.members
                       for a in p.restrictions[(main.s1.open, m)]
                       .mat_vec(main.s1.section))
    if main.s2 is not None:
        u, members = main.s2.open, main.s2.cover.members
        assert all(tuple(tuple(p.restrictions[(u, m)].mat_vec(s)) for m in members)
                   != main.s2.family for s in sections(p, u))


@settings(max_examples=200, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_axioms_agree_with_the_oracle(rng):
    p = rand_presheaf(rng)
    assert p.functoriality_failures() == []
    main = check_completeness(p)
    reps = [enum_gluing_check(p, u) for u in range(len(p.space.opens))]
    assert main.ok == all(r.ok for r in reps)
    assert open_of(main.s1) == first_open(reps, lambda r: not r.s1_ok)
    if main.s1 is None:
        assert open_of(main.s2) == first_open(reps, lambda r: not r.s2_ok)
    assert_witnesses_hold(p, main)


@settings(max_examples=100, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_sheafify_gives_a_sheaf_with_a_natural_unit(rng):
    p = rand_presheaf(rng)
    sh, unit = sheafify(p)
    assert sh.functoriality_failures() == []
    assert check_completeness(sh).ok
    assert all(enum_gluing_check(sh, u).ok for u in range(len(p.space.opens)))
    for (u, v), r in p.restrictions.items():
        assert (sh.restrictions[(u, v)] @ unit[u]).entries == \
            (unit[v] @ r).entries
    if check_completeness(p).ok:
        assert sh.dims == p.dims
        assert all(inverse(m) is not None for m in unit.values())
