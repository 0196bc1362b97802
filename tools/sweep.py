"""Cross-check the symplectic and the pairing side against the oracle on
every small world.

Usage::

    python tools/sweep.py

A world is a topology on labelled points, the field F_2 or F_3 and a
family of matrices, one per point, in every combination the sweep lists.
The topologies are every one on at most three points (1, 1, 4 and 29 of
them on 0, 1, 2 and 3 points, OEIS A000798); the stalkwise sub-sheaves of
a free module sheaf are the families of subspaces of its stalk.  Two
families of worlds are swept.

**symplectic**: at rank 1 and 2 every alternating coefficient family,
degenerate ones included, and the one point at rank 4 with every
alternating 4 x 4 matrix.  On each world:

- ``form_rank`` on every nonempty open is compared with the ranks by minor
  expansion (``RankNotConstant`` where they differ);
- ``darboux`` at every point must raise ``ZeroFormAt`` where the
  coefficient vanishes, may raise ``NoAdmissibleNeighborhood`` only where
  the coefficients are not all equal on the point's minimal open, and
  otherwise returns pairs whose wedge sum (``wedge_sum_matches``) is the
  form on a neighbourhood of the point, with twice ``half_rank`` the rank
  by minors there; ``darboux_reconstructs`` agrees with
  ``wedge_sum_matches`` on the result and on a copy with the first pair's
  members swapped.

On each nondegenerate world, for every stalkwise sub-sheaf F (for the
rank-4 forms in ``FORMS4`` only):

- ``form_perp``, ``classify`` and ``reduce`` are compared with
  ``enum_symplectic`` and the reduced form's rank by minors, and the
  reduced form's values with ``reduced_form_matches``;
- when F is co-isotropic, ``reduce_lagrangian`` with a Lagrangian G in
  each position relative to F (per point, the size of G meet F and whether
  G holds F^w), on the indiscrete topology of each point set only (the
  reduction is stalkwise), returns the stalks ``projected_meet``
  enumerates, the reduced form vanishes on them (``vanishes_on``) and
  their size squared is p to the reduced dimension.

**pairing**: the ranks of the pairing's two sides (1 or 2 each) and every
family of the grams ``GRAMS`` lists for those ranks.  The square ones
include a matrix that is invertible and one that is degenerate, neither of
them symmetric, and at rank 2 a symmetric invertible one whose inverse
differs from it over F_2 as over F_3, so that a transpose taken with the
inverse where the gram belongs fails on both fields; a matrix that is not
square is degenerate on its larger side.  On each world:

- ``is_nondegenerate`` is compared with the radicals the oracle enumerates
  at each point (``enum_annihilator`` of everything, on a one-point copy
  of the gram): it fails exactly when some gram is not square or has a
  nonzero radical, at the first such point; it names the right side when
  the right radical there is nonzero and the left side otherwise; and its
  witness is a section over the point's minimal open, zero off the point
  and a nonzero member of that radical at it;
- ``annihilator``, for every stalkwise sub-sheaf of the left side, and
  ``left_annihilator``, for every stalkwise sub-sheaf of the right side,
  have on every open exactly the sections ``enum_annihilator``
  enumerates; for the left annihilator the oracle is given the pairing
  with each gram transposed entry by entry here;
- ``transpose_endomorphism``, on each world whose sides have one rank and
  whose grams the oracle finds invertible at every point (no nonzero
  radical), for every family of the endomorphisms ``ENDOS`` lists for that
  rank: with T its answer for S, <S u, v> = <u, T v> under the gram for
  all members u, v of each point's stalk, evaluated with the oracle's
  ``_apply`` and ``_dot``.

The oracle's answers do not depend on the topology, so each is enumerated
once per sweep.  Each disagreement is printed on one line, then one totals
line per family; the exit code is 1 if there was any.  Tier-1 runs the
worlds on at most two points (and the rank-4 point) in
``tests/test_symplectic_oracle.py`` and ``tests/test_pairing_oracle.py``.
"""

import collections
import itertools
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import oracle  # noqa: E402
from sheafplectic.exactalg import Matrix, PrimeField, Subspace  # noqa: E402
from sheafplectic.modsheaf import (  # noqa: E402
    FreeModuleSheaf,
    MorphismSheaf,
    PairingSheaf,
    SubmoduleSheaf,
    TwoFormSheaf,
    full_submodule,
)
from sheafplectic.pairing import (  # noqa: E402
    annihilator,
    is_nondegenerate,
    left_annihilator,
    transpose_endomorphism,
)
from sheafplectic.space import FiniteSpace  # noqa: E402
from sheafplectic.symplectic import (  # noqa: E402
    DarbouxResult,
    NoAdmissibleNeighborhood,
    RankNotConstant,
    SymplecticModule,
    ZeroFormAt,
    classify,
    darboux,
    darboux_reconstructs,
    form_perp,
    form_rank,
    reduce,
    reduce_lagrangian,
)

FIELDS = (PrimeField(2), PrimeField(3))
MAX_POINTS = 3
BUDGET = oracle.EnumerationBudget(max_rank=4)
# the rank-4 forms whose sub-sheaves are swept, as upper triangles
# (1,2) (1,3) (1,4) (2,3) (2,4) (3,4): the standard block and one whose
# Darboux pairs mix all four coordinates
FORMS4 = ((1, 0, 0, 0, 0, 1), (1, 1, 1, 1, 1, 1))
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


# ---------------------------------------------------------------------------
# the worlds

def spaces(max_points):
    """Every topology on the points p0 .. p(n-1), for n up to
    ``max_points``."""
    for n in range(max_points + 1):
        points = tuple("p%d" % i for i in range(n))
        inner = [frozenset(c) for k in range(1, n)
                 for c in itertools.combinations(points, k)]
        for keep in itertools.product((False, True), repeat=len(inner)):
            opens = {frozenset(), frozenset(points)}
            opens.update(s for s, k in zip(inner, keep) if k)
            if all(a | b in opens and a & b in opens
                   for a in opens for b in opens):
                yield FiniteSpace(points, opens)


def families(points, choices):
    """Every family with one of ``choices`` at each point."""
    return [dict(zip(points, c))
            for c in itertools.product(choices, repeat=len(points))]


def subspaces(field, n):
    """Every subspace of F^n, each once, by dimension: those of dimension
    k + 1 are the spans of one of dimension k and one vector outside it."""
    # one vector per line: its first nonzero entry is one
    vectors = [v for v in itertools.product(field.elements(), repeat=n)
               if next((a for a in v if a), None) == field.one]
    layer = [Subspace.span(field, n, [])]
    found = list(layer)
    for _ in range(n):
        layer = list(dict.fromkeys(Subspace.span(field, n, s.basis + (v,))
                                   for s in layer for v in vectors
                                   if not s.contains(v)))
        found += layer
    return found


def alternating(field, n, upper):
    """The alternating n x n matrix with the given entries above the
    diagonal, row by row."""
    rows = [[field.zero] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), a in zip(pairs, upper):
        rows[i][j], rows[j][i] = field.from_int(a), -field.from_int(a)
    return Matrix.from_rows(field, rows, cols=n)


def every_alternating(field, n):
    """Every alternating n x n matrix."""
    return [alternating(field, n, values) for values in itertools.product(
        range(field.p), repeat=n * (n - 1) // 2)]


def _matrix(field, rows, cols):
    return Matrix.from_rows(field, [[field.from_int(a) for a in r]
                                    for r in rows], cols=cols)


def _transposed(p):
    """The pairing of the right side with the left, each gram transposed
    entry by entry."""
    return PairingSheaf(p.right, p.left, {
        x: Matrix.from_rows(p.field, list(zip(*g.entries)), cols=g.rows)
        for x, g in p.gram.items()})


def _rows(field, rows):
    return [[field.format(a) for a in r] for r in rows]


def _bases(field, points, stalks):
    return [_rows(field, stalks[x].basis) for x in points]


def _label(space, field, name, mats):
    return "F_%d opens=%s %s=%s" % (
        field.p, [sorted(o) for o in space.opens], name,
        [_rows(field, mats[x].entries) for x in space.points])


def _symplectic_worlds(max_points):
    """(label, (space, field, rank, coefficients, stalk families)) for each
    world: the sub-sheaf checks run on the stalk families, empty where the
    form is not swept for them."""
    for field in FIELDS:
        for rank in (1, 2):
            every = every_alternating(field, rank)
            stalk_choices = subspaces(field, rank)
            for space in spaces(max_points):
                stalks = families(space.points, stalk_choices) \
                    if rank == 2 else []
                for coeff in families(space.points, every):
                    yield (_label(space, field, "form", coeff),
                           (space, field, rank, coeff, stalks))
        forms = [alternating(field, 4, t) for t in FORMS4]
        point = FiniteSpace(("p0",), [(), ("p0",)])
        stalks = families(point.points, subspaces(field, 4))
        for coeff in families(point.points, every_alternating(field, 4)):
            yield (_label(point, field, "form", coeff),
                   (point, field, 4, coeff,
                    stalks if coeff["p0"] in forms else []))


def _pairing_worlds(max_points):
    """(label, (pairing, left stalk families, right stalk families)) for
    each field, pair of ranks, topology and gram family."""
    for field in FIELDS:
        for (lr, rr), grams in GRAMS.items():
            grams = [_matrix(field, g, rr) for g in grams]
            choices = [subspaces(field, rank) for rank in (lr, rr)]
            for space in spaces(max_points):
                left = FreeModuleSheaf(space, field, lr)
                right = left if lr == rr else FreeModuleSheaf(space, field, rr)
                stalks = [families(space.points, c) for c in choices]
                for gram in families(space.points, grams):
                    yield (_label(space, field, "gram", gram),
                           (PairingSheaf(left, right, gram), *stalks))


# ---------------------------------------------------------------------------
# the oracle's answers, memoised per sweep

def _memoised(key):
    """Make ``lookup(memo, *args)`` answer ``compute(*args)`` once per
    ``key(*args)`` in ``memo``, a dict that one sweep owns."""
    def wrap(compute):
        def lookup(memo, *args):
            k = (compute.__name__,) + key(*args)
            if k not in memo:
                memo[k] = compute(*args)
            return memo[k]
        return lookup
    return wrap


@_memoised(lambda sub: (sub,))
def _members(sub):
    """The vectors of one subspace."""
    return frozenset(oracle.span_members(sub.field, sub))


@_memoised(lambda w, f, whole: (w.field, w.space.points,
                                tuple(w.gram.values()),
                                tuple(f.stalks.values())))
def _facts(w, f, whole):
    """``enum_symplectic`` over the whole space."""
    return oracle.enum_symplectic(w, f, whole, BUDGET)


@_memoised(lambda field, gram: (gram,))
def _radicals(field, gram):
    """The members of the left and of the right radical of one gram."""
    left = FreeModuleSheaf(ONE_POINT, field, gram.rows)
    right = FreeModuleSheaf(ONE_POINT, field, gram.cols)
    p = PairingSheaf(left, right, {"p": gram})
    whole = ONE_POINT.index_of(("p",))
    return tuple({s.values["p"] for s in oracle.enum_annihilator(
        q, full_submodule(q.left), whole)} for q in (_transposed(p), p))


@_memoised(lambda p, g, u: tuple((p.gram[x], g.stalks[x])
                                 for x in p.space.member_points(u)))
def _sections(p, g, u):
    """The annihilator's sections over ``u``, as value tuples."""
    pts = p.space.member_points(u)
    return {tuple(s.values[x] for x in pts)
            for s in oracle.enum_annihilator(p, g, u)}


@_memoised(lambda field, gram, s, t: (gram, s, t))
def _adjoint(field, gram, s, t):
    """Whether <S u, v> = <u, T v> under ``gram`` for all u, v."""
    vectors = list(itertools.product(field.elements(), repeat=gram.rows))

    def pair(u, v):
        return oracle._dot(field, u, oracle._apply(field, gram, v))

    return all(pair(oracle._apply(field, s, u), v) ==
               pair(u, oracle._apply(field, t, v))
               for u in vectors for v in vectors)


# ---------------------------------------------------------------------------
# the symplectic checks

def _form_disagreements(w, ranks):
    """What ``form_rank`` and ``darboux`` get wrong on one form, given the
    coefficient ranks by minors."""
    space = w.space
    found = []
    for u, members in enumerate(space.opens):
        if not members:
            continue
        common = {ranks[x] for x in members}
        want = common.pop() if len(common) == 1 else "RankNotConstant"
        try:
            got = form_rank(w, u)
        except RankNotConstant:
            got = "RankNotConstant"
        if got != want:
            found.append("form_rank on %s: %s, not %s" % (sorted(members), got, want))
    for x in space.points:
        minimal = frozenset.intersection(*[o for o in space.opens if x in o])
        try:
            res = darboux(w, x)
        except ZeroFormAt:
            if any(map(any, w.coeff[x].entries)):
                found.append("darboux at %s: ZeroFormAt on a nonzero form" % x)
            continue
        except NoAdmissibleNeighborhood:
            if len({w.coeff[y] for y in minimal}) == 1:
                found.append("darboux at %s: no neighbourhood for a form "
                             "constant on the minimal open" % x)
            continue
        except Exception as exc:
            found.append("darboux at %s: %s: %s" % (x, type(exc).__name__, exc))
            continue
        u = res.neighborhood
        if x not in space.opens[u]:
            found.append("darboux at %s: neighbourhood misses the point" % x)
        elif not oracle.wedge_sum_matches(w, res.pairs, u):
            found.append("darboux at %s: wrong pairs" % x)
        elif any(2 * res.half_rank != ranks[y] for y in space.opens[u]):
            found.append("darboux at %s: half rank %d" % (x, res.half_rank))
        elif not _reconstructs_agrees(w, res):
            found.append("darboux at %s: darboux_reconstructs disagrees" % x)
    return found


def _reconstructs_agrees(w, res):
    """Whether ``darboux_reconstructs`` says what ``wedge_sum_matches``
    says, on a correct result and on a copy with the first pair swapped."""
    (a, b), rest = res.pairs[0], res.pairs[1:]
    swapped = DarbouxResult(res.at, res.neighborhood, [(b, a)] + rest,
                            res.half_rank, res.pivots, res.permutation)
    return all(darboux_reconstructs(w, r) ==
               oracle.wedge_sum_matches(w, r.pairs, r.neighborhood)
               for r in (res, swapped))


def _answers(sm, f, red, whole):
    """What the main paths say about one sub-sheaf and its reduction
    ``red``, keyed as in ``_sub_disagreements``."""
    points = sm.module.space.points
    cls = classify(sm, f)
    return {
        "form_perp": {tuple(s.values[x] for x in points) for s in
                      oracle.enum_submodule_sections(form_perp(sm, f), whole,
                                                     BUDGET)},
        "classify": (cls.isotropic, cls.coisotropic, cls.symplectic_sub,
                     cls.lagrangian),
        "reduced dimension": {x: red.reduced_dim(x) for x in points},
        "reduced form rank": {x: oracle.recompute_rank_via_minors(
            red.reduced_form[x]) for x in points},
        "reduced form values": oracle.reduced_form_matches(
            sm.form, f, red.quotient.proj, red.reduced_form, BUDGET),
    }


def _lagrangian_disagreements(red, g, facts):
    """What ``reduce_lagrangian`` gets wrong on the reduction ``red`` by a
    co-isotropic F and a Lagrangian G."""
    f, field = red.by, red.quotient.field
    res = reduce_lagrangian(red, g)
    image = oracle.projected_meet(f, g, red.quotient.proj, BUDGET)
    found = []
    for x in f.space.points:
        if set(oracle.span_members(field, res.stalks[x])) != image[x]:
            found.append("reduce_lagrangian stalk at %s" % x)
        if not oracle.vanishes_on(red.reduced_form[x], image[x]):
            found.append("reduced form does not vanish at %s" % x)
        if len(image[x]) ** 2 != field.p ** facts.reduced_dims[x]:
            found.append("projected meet has the wrong size at %s" % x)
    return found


def _one_per_position(points, f_stalks, fact, lagrangians, memo):
    """The first Lagrangian G in each position relative to F: per point,
    the size of G_x meet F_x and whether G_x holds F^w_x."""
    perp = [{t[i] for t in fact.perp} for i in range(len(points))]
    chosen = {}
    for g in lagrangians:
        key = tuple((len(_members(memo, g[x]) & _members(memo, f_stalks[x])),
                     perp[i] <= _members(memo, g[x]))
                    for i, x in enumerate(points))
        chosen.setdefault(key, g)
    return list(chosen.values())


def _sub_disagreements(w, stalk_families, memo, counts):
    """What the main paths and the oracle disagree on for the sub-sheaves of
    one nondegenerate world, as (what, the families after the world's
    label).  An exception from a main path, such as a tripped
    postcondition, is one more disagreement.  ``reduce_lagrangian`` runs on
    the indiscrete topologies only; ``counts`` tallies the calls checked."""
    space, field, e = w.space, w.field, w.module
    sm = SymplecticModule(e, w)
    whole = space.index_of(space.points)
    found = []
    facts = [_facts(memo, w, SubmoduleSheaf(e, s), whole)
             for s in stalk_families]
    lagrangian = [s for s, fact in zip(stalk_families, facts) if fact.lagrangian]
    for stalks, fact in zip(stalk_families, facts):
        f = SubmoduleSheaf(e, stalks)
        label = " stalks=%s" % _bases(field, space.points, stalks)
        counts["sub-sheaves"] += 1
        try:
            red = reduce(sm, f)
            main = _answers(sm, f, red, whole)
        except Exception as exc:
            found.append(("%s: %s" % (type(exc).__name__, exc), label))
            continue
        expected = {
            "form_perp": fact.perp,
            "classify": (fact.isotropic, fact.coisotropic, fact.symplectic,
                         fact.lagrangian),
            "reduced dimension": fact.reduced_dims,
            "reduced form rank": fact.reduced_dims,
            "reduced form values": True,
        }
        found += [(what, label) for what in main
                  if main[what] != expected[what]]
        if len(space.opens) > 2 or not fact.coisotropic:
            continue
        for g_stalks in _one_per_position(space.points, stalks, fact,
                                          lagrangian, memo):
            g_label = "%s lagrangian=%s" % (
                label, _bases(field, space.points, g_stalks))
            counts["reduce_lagrangian"] += 1
            try:
                bad = _lagrangian_disagreements(
                    red, SubmoduleSheaf(e, g_stalks), fact)
            except Exception as exc:
                bad = ["reduce_lagrangian: %s: %s" % (type(exc).__name__, exc)]
            found += [(what, g_label) for what in bad]
    return found


def _symplectic_check(world, memo, counts):
    """The form checks on one world, and the sub-sheaf checks if it is
    nondegenerate and has stalk families."""
    space, field, rank, coeff, stalk_families = world
    w = TwoFormSheaf(FreeModuleSheaf(space, field, rank), coeff)
    ranks = {x: oracle.recompute_rank_via_minors(coeff[x])
             for x in space.points}
    found = [(what, "") for what in _form_disagreements(w, ranks)]
    if stalk_families and all(r == rank for r in ranks.values()):
        found += _sub_disagreements(w, stalk_families, memo, counts)
    return found


# ---------------------------------------------------------------------------
# the pairing checks

def _nondegeneracy_disagreements(p, memo, counts):
    """What ``is_nondegenerate`` gets wrong on one pairing."""
    space, field = p.space, p.field
    bad = None
    for x in space.points:
        left, right = _radicals(memo, field, p.gram[x])
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
    left, right = _radicals(memo, field, p.gram[bad])
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


def _annihilator_disagreements(p, which, main, stalk_families, memo, counts):
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
        have = {x: _members(memo, got.stalks[x]) for x in space.points}
        for u in range(len(space.opens)):
            mine = set(itertools.product(*[have[x]
                                           for x in space.member_points(u)]))
            if mine != _sections(memo, p, g, u):
                found.append("%s on %s: stalks=%s" % (
                    which, sorted(space.opens[u]),
                    _bases(field, space.points, stalks)))
    return found


def _transpose_disagreements(p, memo, counts):
    """What ``transpose_endomorphism`` gets wrong on one pairing, for every
    family of ``ENDOS``; none unless the sides have one rank and every gram
    is invertible."""
    field, points = p.field, p.space.points
    if p.left != p.right or any(len(r) > 1 for x in points
                                for r in _radicals(memo, field, p.gram[x])):
        return []
    endos = [_matrix(field, e, p.left.rank) for e in ENDOS[p.left.rank]]
    found = []
    for family in families(points, endos):
        s = MorphismSheaf(p.left, p.left, family)
        counts["endomorphisms"] += 1
        try:
            t = transpose_endomorphism(p, s)
        except Exception as exc:
            found.append("transpose_endomorphism: %s: %s"
                         % (type(exc).__name__, exc))
            continue
        found += ["transpose_endomorphism at %s: S=%s" % (
            x, _rows(field, s.mats[x].entries))
            for x in points
            if not _adjoint(memo, field, p.gram[x], s.mats[x], t.mats[x])]
    return found


def _pairing_check(world, memo, counts):
    """Every pairing check on one world."""
    p, left_stalks, right_stalks = world
    found = _nondegeneracy_disagreements(p, memo, counts)
    found += _annihilator_disagreements(
        p, "annihilator", lambda g: annihilator(p, g), left_stalks,
        memo, counts)
    found += _annihilator_disagreements(
        _transposed(p), "left_annihilator", lambda h: left_annihilator(p, h),
        right_stalks, memo, counts)
    found += _transpose_disagreements(p, memo, counts)
    return [(what, "") for what in found]


# ---------------------------------------------------------------------------
# the driver

def _run(worlds, check, out):
    """Run ``check(world, memo, counts)`` on each labelled world, with one
    memo for the whole sweep; print each disagreement, a (what, detail)
    pair, as ``what: label detail`` through ``out`` and return ``(counts,
    disagreements)``."""
    memo, counts, found = {}, collections.Counter(), []
    for label, world in worlds:
        counts["worlds"] += 1
        for what, detail in check(world, memo, counts):
            line = "%s: %s%s" % (what, label, detail)
            out(line)
            found.append(line)
    return counts, found


def symplectic(max_points=MAX_POINTS, out=print):
    """Run the symplectic worlds on at most ``max_points`` points, and the
    rank-4 point, through ``_run``.  ``counts`` holds the worlds (a
    topology, field, rank and coefficient family each), the sub-sheaves
    checked on them and the ``reduce_lagrangian`` calls."""
    return _run(_symplectic_worlds(max_points), _symplectic_check, out)


def pairing(max_points=MAX_POINTS, out=print):
    """Run the pairing worlds on at most ``max_points`` points through
    ``_run``.  ``counts`` holds the worlds (a topology, field, pair of
    ranks and gram family each), the annihilator and left annihilator calls
    checked, the witnesses checked on each side and the endomorphism
    families whose transpose was checked."""
    return _run(_pairing_worlds(max_points), _pairing_check, out)


def main():
    counts, found = symplectic()
    print("symplectic: %d worlds, %d sub-sheaves, %d reduce_lagrangian "
          "calls, %d disagreements" % (
              counts["worlds"], counts["sub-sheaves"],
              counts["reduce_lagrangian"], len(found)))
    counts, more = pairing()
    print("pairing: %d worlds, %d sub-sheaves, %d endomorphisms, "
          "%d disagreements" % (counts["worlds"], counts["sub-sheaves"],
                                counts["endomorphisms"], len(more)))
    return 1 if found or more else 0


if __name__ == "__main__":
    sys.exit(main())
