"""Cross-check the symplectic constructions against the oracle on every
small world.

Usage::

    python tools/sweep.py

A world is a topology on labelled points, the field F_2 or F_3, a rank and
an alternating coefficient family.  The worlds are every topology on at
most three points (1, 1, 4 and 29 of them on 0, 1, 2 and 3 points, OEIS
A000798) at rank 1 and 2, and the one point at rank 4, each with every
alternating coefficient family, degenerate ones included.  On each world:

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
  G holds F^w), on the first topology of each point set only (the
  reduction is stalkwise), returns the stalks ``projected_meet``
  enumerates, the reduced form vanishes on them (``vanishes_on``) and
  their size squared is p to the reduced dimension.

Each disagreement is printed on one line, then the totals; the exit code
is 1 if there was any.  Tier-1 runs the worlds on at most two points in
``tests/test_symplectic_oracle.py``.
"""

import collections
import functools
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
    SubmoduleSheaf,
    TwoFormSheaf,
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


def topologies(n):
    """Every topology on the points p0 .. p(n-1)."""
    points = tuple("p%d" % i for i in range(n))
    inner = [frozenset(c) for k in range(1, n)
             for c in itertools.combinations(points, k)]
    for keep in itertools.product((False, True), repeat=len(inner)):
        opens = {frozenset(), frozenset(points)}
        opens.update(s for s, k in zip(inner, keep) if k)
        if all(a | b in opens and a & b in opens for a in opens for b in opens):
            yield FiniteSpace(points, opens)


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


def _label(space, field, coeff, *families):
    def fmt(rows):
        return [[field.format(a) for a in r] for r in rows]

    text = "F_%d opens=%s form=%s" % (
        field.p, [sorted(o) for o in space.opens],
        [fmt(coeff[x].entries) for x in space.points])
    for name, stalks in zip(("stalks", "lagrangian"), families):
        text += " %s=%s" % (name, [fmt(stalks[x].basis) for x in space.points])
    return text


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


def _one_per_position(points, f_stalks, fact, lagrangians):
    """The first Lagrangian G in each position relative to F: per point,
    the size of G_x meet F_x and whether G_x holds F^w_x."""
    perp = [{t[i] for t in fact.perp} for i in range(len(points))]
    chosen = {}
    for g in lagrangians:
        key = tuple((len(members(g[x]) & members(f_stalks[x])),
                     perp[i] <= members(g[x]))
                    for i, x in enumerate(points))
        chosen.setdefault(key, g)
    return list(chosen.values())


def _sub_disagreements(space, field, rank, coeff, stalk_families, cache,
                       lagrangians, counts):
    """What the main paths and the oracle disagree on for the sub-sheaves of
    one nondegenerate world: a description per disagreement.  An exception
    from a main path, such as a tripped postcondition, is one more
    disagreement.  ``lagrangians`` says whether to run ``reduce_lagrangian``
    on this world; ``counts`` tallies the calls checked."""
    e = FreeModuleSheaf(space, field, rank)
    w = TwoFormSheaf(e, coeff)
    sm = SymplecticModule(e, w)
    whole = space.index_of(space.points)
    found = []
    facts = [cache.facts(w, SubmoduleSheaf(e, s), whole) for s in stalk_families]
    lagrangian = [s for s, fact in zip(stalk_families, facts) if fact.lagrangian]
    for stalks, fact in zip(stalk_families, facts):
        f = SubmoduleSheaf(e, stalks)
        label = _label(space, field, coeff, stalks)
        counts["sub-sheaves"] += 1
        try:
            red = reduce(sm, f)
            main = _answers(sm, f, red, whole)
        except Exception as exc:
            found.append("%s: %s: %s" % (type(exc).__name__, exc, label))
            continue
        expected = {
            "form_perp": fact.perp,
            "classify": (fact.isotropic, fact.coisotropic, fact.symplectic,
                         fact.lagrangian),
            "reduced dimension": fact.reduced_dims,
            "reduced form rank": fact.reduced_dims,
            "reduced form values": True,
        }
        found += ["%s: %s" % (what, label)
                  for what in main if main[what] != expected[what]]
        if not (lagrangians and fact.coisotropic):
            continue
        for g_stalks in _one_per_position(space.points, stalks, fact,
                                          lagrangian):
            label = _label(space, field, coeff, stalks, g_stalks)
            counts["reduce_lagrangian"] += 1
            try:
                bad = _lagrangian_disagreements(
                    red, SubmoduleSheaf(e, g_stalks), fact)
            except Exception as exc:
                bad = ["reduce_lagrangian: %s: %s" % (type(exc).__name__, exc)]
            found += ["%s: %s" % (what, label) for what in bad]
    return found


@functools.lru_cache(maxsize=None)
def members(sub):
    """The vectors of one subspace, enumerated once."""
    return frozenset(oracle.span_members(sub.field, sub))


class _Cache:
    """The oracle's answers, each computed once: over the whole space they
    do not depend on the topology."""

    def __init__(self):
        self._facts = {}

    def facts(self, w, f, whole):
        key = (w.field, w.space.points, tuple(w.gram.values()),
               tuple(f.stalks.values()))
        if key not in self._facts:
            self._facts[key] = oracle.enum_symplectic(w, f, whole, BUDGET)
        return self._facts[key]


def _worlds(max_points):
    """(field, rank, space, coefficient families, sub-sheaf forms, stalk
    families) for each field, rank and topology swept: the sub-sheaf
    checks run on the nondegenerate families among the second list."""
    for field in FIELDS:
        for rank in (1, 2):
            every = every_alternating(field, rank)
            stalk_choices = subspaces(field, rank)
            for n in range(max_points + 1):
                points = tuple("p%d" % i for i in range(n))
                coeffs = [dict(zip(points, c))
                          for c in itertools.product(every, repeat=n)]
                families = [dict(zip(points, c)) for c in
                            itertools.product(stalk_choices, repeat=n)]
                for space in topologies(n):
                    yield (field, rank, space, coeffs,
                           [] if rank % 2 else coeffs, families)
        point = FiniteSpace(("p0",), [(), ("p0",)])
        yield (field, 4, point,
               [{"p0": m} for m in every_alternating(field, 4)],
               [{"p0": alternating(field, 4, t)} for t in FORMS4],
               [{"p0": s} for s in subspaces(field, 4)])


def sweep(max_points=MAX_POINTS, out=print):
    """Run every world on at most ``max_points`` points, and the rank-4
    point; print each disagreement through ``out`` and return ``(counts,
    disagreements)``.  ``counts`` holds the worlds (a topology, field, rank
    and coefficient family each), the sub-sheaves checked on them and the
    ``reduce_lagrangian`` calls.
    """
    cache = _Cache()
    counts = collections.Counter()
    found = []
    seen_points = set()
    for field, rank, space, coeffs, sub_coeffs, families in _worlds(max_points):
        first = (field, rank, space.points) not in seen_points
        seen_points.add((field, rank, space.points))
        e = FreeModuleSheaf(space, field, rank)
        lines = []
        for coeff in coeffs:
            counts["worlds"] += 1
            ranks = {x: oracle.recompute_rank_via_minors(coeff[x])
                     for x in space.points}
            label = _label(space, field, coeff)
            lines += ["%s: %s" % (what, label) for what in
                      _form_disagreements(TwoFormSheaf(e, coeff), ranks)]
        for coeff in sub_coeffs:
            if all(oracle.recompute_rank_via_minors(coeff[x]) == rank
                   for x in space.points):
                lines += _sub_disagreements(space, field, rank, coeff,
                                            families, cache, first, counts)
        for line in lines:
            out(line)
        found += lines
    return counts, found


def main():
    counts, found = sweep()
    print("%d worlds, %d sub-sheaves, %d reduce_lagrangian calls, "
          "%d disagreements" % (counts["worlds"], counts["sub-sheaves"],
                                counts["reduce_lagrangian"], len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
