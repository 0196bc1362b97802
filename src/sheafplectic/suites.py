"""Randomized instance generators, the records every named invariant suite
writes, and the seeded run of a suite.

Every draw goes through an explicit ``random.Random`` so suite output is a
pure function of the seed; the CLI check command and the acceptance tests
both build on these.  The suites themselves follow the paper's layers, one
module each, so that a check compiles only its own: ``sheaf_suites`` holds
``completeness``, the suite of the sheaf axioms; ``pairing_suites`` holds
the suites of annihilator sheaves (``annihilator-theorem``, ``transpose``,
``hom-exactness``); ``symplectic_suites`` holds ``darboux`` and
``reduction``.  ``cli.SUITES`` names each suite's module.

A suite records only what its calls' guards do not already enforce: a
tripped guard (a library call's ``RuntimeError``) is exit 4, not a fail.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .exactalg import Field, Matrix, Subspace, rank_of
from .space import FiniteSpace
from .modsheaf import FreeModuleSheaf, PairingSheaf, SubmoduleSheaf
from .pairing import canonical_pairing, is_nondegenerate


# ---------------------------------------------------------------------------
# generators

def rand_scalar(field: Field, rng: random.Random, lo: int = -3, hi: int = 3):
    return field.from_int(rng.randint(lo, hi))


def rand_matrix(field: Field, rng: random.Random, rows: int, cols: int,
                lo: int = -3, hi: int = 3) -> Matrix:
    return Matrix.from_rows(
        field, [[rand_scalar(field, rng, lo, hi) for _ in range(cols)]
                for _ in range(rows)], cols=cols)


def rand_invertible(field: Field, rng: random.Random, n: int) -> Matrix:
    while True:
        m = rand_matrix(field, rng, n, n)
        if rank_of(m) == n:
            return m


def rand_subspace(field: Field, rng: random.Random, n: int) -> Subspace:
    dim = rng.randint(0, n)
    return Subspace.span(field, n,
                         [[rand_scalar(field, rng) for _ in range(n)]
                          for _ in range(dim)])


def rand_space(rng: random.Random, max_points: int = 4) -> FiniteSpace:
    """Random finite topology: close random subsets under union/intersection."""
    n = rng.randint(1, max_points)
    points = tuple("p%d" % i for i in range(n))
    sets = {frozenset(), frozenset(points)}
    for _ in range(rng.randint(0, n + 1)):
        sets.add(frozenset(x for x in points if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a in list(sets):
            for b in list(sets):
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        changed = True
    return FiniteSpace(points, sets)


def rand_stalks(e: FreeModuleSheaf, rng: random.Random) -> SubmoduleSheaf:
    return SubmoduleSheaf(e, {x: rand_subspace(e.field, rng, e.rank)
                              for x in e.space.points})


def rand_nondegenerate_pairing(e: FreeModuleSheaf,
                               rng: random.Random) -> PairingSheaf:
    return PairingSheaf(e, e, {x: rand_invertible(e.field, rng, e.rank)
                               for x in e.space.points})


# ---------------------------------------------------------------------------
# records
#
# ``ctx`` in every suite is anything with ``space``, ``field``, ``rank``,
# ``form`` (or None), and ``pairings`` and ``submodules`` dicts, such as the
# CLI manifest.

def _record(check: str, ok: bool, detail: str = "") -> dict:
    return {"check": check, "ok": bool(ok), "detail": detail}


def _pairing_sources(ctx, suite: str,
                     out: List[dict]) -> List[Tuple[str, PairingSheaf]]:
    """The nondegenerate pairings of the context: its named pairings and its
    form, else the canonical pairing.  A degenerate form is left out with
    an ``ok`` skip record on ``out`` naming the point where it degenerates."""
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    sources = []
    for name in sorted(ctx.pairings):
        p = ctx.pairings[name]
        if is_nondegenerate(p).ok:
            sources.append(("pairing:%s" % name, p))
    if ctx.form is not None:
        check = is_nondegenerate(ctx.form)
        if check.ok:
            sources.append(("form", ctx.form))
        else:
            out.append(_record("%s/form/skipped" % suite, True,
                               "form is degenerate at point %s" % check.point))
    if not sources:
        sources.append(("canonical", canonical_pairing(e)))
    return sources


# ---------------------------------------------------------------------------
# running a suite

DRAWS = 5  # random draws per suite and source; completeness takes one fewer


def run_suite(suite, ctx, seed: int) -> List[dict]:
    """The records of ``suite``, a ``suite_*`` function, on ``ctx``, its
    draws made from ``random.Random(seed)``."""
    return suite(ctx, random.Random(seed))
