"""Cross-check the symplectic constructions against the oracle on every
small world.

Usage::

    python tools/sweep.py

A world is a topology on at most three labelled points (1, 1, 4 and 29 of
them on 0, 1, 2 and 3 points, OEIS A000798), the field F_2 or F_3, rank 2,
a nondegenerate alternating coefficient family and a stalkwise sub-sheaf
(every one of each).  On each world ``form_perp``, ``classify`` and
``reduce`` are compared with ``tests/oracle.py``'s ``enum_symplectic`` and
the reduced form's rank by minors, and ``darboux`` at every point with its
``wedge_sum_matches``.  Each disagreement is printed on one line, then the
total; the exit code is 1 if there was any.  Tier-1 runs the worlds on at
most two points in ``tests/test_symplectic_oracle.py``; the full sweep
takes about five minutes on a 2-vCPU host.
"""

import itertools
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import oracle  # noqa: E402
from sheafplectic.exactalg import Matrix, PrimeField, Subspace  # noqa: E402
from sheafplectic.sheaf import (  # noqa: E402
    FreeModuleSheaf,
    SubmoduleSheaf,
    TwoFormSheaf,
)
from sheafplectic.space import FiniteSpace  # noqa: E402
from sheafplectic.symplectic import (  # noqa: E402
    SymplecticModule,
    classify,
    darboux,
    form_perp,
    reduce,
)

FIELDS = (PrimeField(2), PrimeField(3))
RANK = 2
MAX_POINTS = 3


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
    """Every subspace of F^n, each once."""
    vectors = list(itertools.product(field.elements(), repeat=n))
    return list(dict.fromkeys(Subspace.span(field, n, rows) for k in range(n + 1)
                              for rows in itertools.combinations(vectors, k)))


def nondegenerate_alternating(field, n):
    """Every alternating n x n matrix of full rank (rank by span counting)."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in itertools.product(field.elements(), repeat=len(upper)):
        rows = [[field.zero] * n for _ in range(n)]
        for (i, j), a in zip(upper, values):
            rows[i][j], rows[j][i] = a, -a
        m = Matrix.from_rows(field, rows, cols=n)
        if oracle.enum_rank(m) == n:
            out.append(m)
    return out


def _label(space, field, coeff, stalks=None):
    def fmt(rows):
        return [[field.format(a) for a in r] for r in rows]

    text = "F_%d opens=%s form=%s" % (
        field.p, [sorted(o) for o in space.opens],
        [fmt(coeff[x].entries) for x in space.points])
    if stalks is not None:
        text += " stalks=%s" % [fmt(stalks[x].basis) for x in space.points]
    return text


def _answers(sm, f, whole):
    """What the main paths say about one sub-sheaf, keyed as in
    ``_disagreements``."""
    points = sm.module.space.points
    cls = classify(sm, f)
    red = reduce(sm, f)
    return {
        "form_perp": {tuple(s.values[x] for x in points) for s in
                      oracle.enum_submodule_sections(form_perp(sm, f), whole)},
        "classify": (cls.isotropic, cls.coisotropic, cls.symplectic_sub,
                     cls.lagrangian),
        "reduced dimension": {x: red.reduced_dim(x) for x in points},
        "reduced form rank": {x: oracle.recompute_rank_via_minors(
            red.reduced_form[x]) for x in points},
    }


def _disagreements(space, field, coeff, stalk_families, facts_of):
    """What the main paths and the oracle disagree on in one space, field
    and form: a description per disagreement.  An exception from a main
    path, such as a tripped postcondition, is one more disagreement."""
    e = FreeModuleSheaf(space, field, RANK)
    w = TwoFormSheaf(e, coeff)
    sm = SymplecticModule(e, w)
    whole = space.index_of(space.points)
    found = []
    for x in space.points:
        try:
            res = darboux(w, x)
            bad = "" if x in space.opens[res.neighborhood] and \
                oracle.wedge_sum_matches(w, res.pairs, res.neighborhood) \
                else "wrong pairs"
        except Exception as exc:
            bad = "%s: %s" % (type(exc).__name__, exc)
        if bad:
            found.append("darboux at %s (%s): %s"
                         % (x, bad, _label(space, field, coeff)))
    for stalks in stalk_families:
        f = SubmoduleSheaf(e, stalks)
        label = _label(space, field, coeff, stalks)
        try:
            main = _answers(sm, f, whole)
        except Exception as exc:
            found.append("%s: %s: %s" % (type(exc).__name__, exc, label))
            continue
        facts = facts_of(w, f, whole)
        expected = {
            "form_perp": facts.perp,
            "classify": (facts.isotropic, facts.coisotropic, facts.symplectic,
                         facts.lagrangian),
            "reduced dimension": facts.reduced_dims,
            "reduced form rank": facts.reduced_dims,
        }
        found += ["%s: %s" % (what, label)
                  for what in main if main[what] != expected[what]]
    return found


def sweep(max_points=MAX_POINTS, out=print):
    """Run every world on at most ``max_points`` points; print each
    disagreement through ``out`` and return ``(worlds, disagreements)``.

    The oracle's answer over the whole space does not depend on the
    topology, so it is computed once per field, points, form and stalks.
    """
    cache = {}

    def facts_of(w, f, whole):
        key = (w.field, w.space.points, tuple(w.gram.values()),
               tuple(f.stalks.values()))
        if key not in cache:
            cache[key] = oracle.enum_symplectic(w, f, whole)
        return cache[key]

    worlds = 0
    found = []
    for field in FIELDS:
        stalk_choices = subspaces(field, RANK)
        form_choices = nondegenerate_alternating(field, RANK)
        for n in range(max_points + 1):
            points = tuple("p%d" % i for i in range(n))
            families = [dict(zip(points, c)) for c in
                        itertools.product(stalk_choices, repeat=n)]
            for space in topologies(n):
                for forms in itertools.product(form_choices, repeat=n):
                    worlds += len(families)
                    for line in _disagreements(space, field, dict(zip(points, forms)),
                                               families, facts_of):
                        out(line)
                        found.append(line)
    return worlds, found


def main():
    worlds, found = sweep()
    print("%d worlds, %d disagreements" % (worlds, len(found)))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
