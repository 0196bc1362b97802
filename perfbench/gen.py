"""Seeded manifest generators for the benchmark.

Stdlib only and independent of ``src/``, so a change to the library never
changes the benchmark's inputs.  Every generated object carries the facts
its construction guarantees (ranks, which subs are Lagrangian or
co-isotropic, dimensions of annihilators), and the workloads derive each
call's expected outcome from those facts, never from running the program.
"""

from __future__ import annotations

import random

FORMAT = "sheafplectic-manifest/1"
P = 10007  # the prime of every F_p manifest
DRAWS = 9  # random matrices drawn for each one a manifest keeps


# ---------------------------------------------------------------------------
# integer matrices (lists of lists of int)

def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def unimodular(rng: random.Random, n: int, ops: int):
    """An integer matrix of determinant +-1 and its integer inverse, built
    from ``ops`` random row additions and a row permutation."""
    b = identity(n)
    binv = identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        # B <- E B with E = I + c e_i e_j^T; B^-1 <- B^-1 E^-1
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        for row in binv:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    b = [b[k] for k in perm]
    binv = [[row[k] for k in perm] for row in binv]
    return b, binv


def entry_bits(rows) -> int:
    return sum(abs(a).bit_length() for row in rows for a in row)


def median_draw(draw, size, k: int):
    """Of ``k`` values of ``draw()``, the one of median ``size``.

    The seed still picks the entries, but the size of what is kept (and so
    the cost of exact elimination over Q on it) varies far less from seed
    to seed than that of a single draw.
    """
    drawn = [draw() for _ in range(k)]
    return sorted(drawn, key=size)[k // 2]


def standard_block(n: int, r: int):
    """n x n skew matrix with r/2 standard symplectic blocks, zeros after."""
    j = [[0] * n for _ in range(n)]
    for k in range(r // 2):
        j[2 * k][2 * k + 1] = 1
        j[2 * k + 1][2 * k] = -1
    return j


# ---------------------------------------------------------------------------
# topologies: (points, opens) with opens as sorted point lists

def discrete_space(n: int):
    points = ["p%d" % i for i in range(n)]
    opens = [[points[i] for i in range(n) if mask >> i & 1]
             for mask in range(1 << n)]
    return points, opens


def chain_space(n: int):
    points = ["p%d" % i for i in range(n)]
    return points, [points[:k] for k in range(n + 1)]


def _close(sets):
    sets = set(sets)
    frontier = list(sets)
    while frontier:
        a = frontier.pop()
        for b in list(sets):
            for c in (a | b, a & b):
                if c not in sets:
                    sets.add(c)
                    frontier.append(c)
    return sets


def random_space(rng: random.Random, n: int, lo: int, hi: int):
    """A random topology on ``n`` points with between ``lo`` and ``hi``
    opens: the lattice generated by random subsets."""
    points = ["p%d" % i for i in range(n)]
    full = frozenset(points)
    while True:
        gens = {frozenset(), full}
        sets = _close(gens)
        while len(sets) < lo:
            gens.add(frozenset(x for x in points if rng.random() < 0.5))
            sets = _close(gens)
        if len(sets) <= hi:
            order = sorted(sets, key=lambda o: (len(o), sorted(o)))
            return points, [sorted(o) for o in order]


def irredundant_cover_count(opens) -> int:
    """Total number of irredundant covers over every open (a cost proxy for
    the completeness check; own implementation, not the library's)."""
    sets = [frozenset(o) for o in opens]
    total = 0
    for target in sets:
        if not target:
            total += 1
            continue
        cands = [s for s in sets if s and s <= target]
        count = 0

        def extend(start, chosen, union):
            nonlocal count
            if union == target:
                for k, m in enumerate(chosen):
                    rest = frozenset().union(*(c for j, c in enumerate(chosen)
                                               if j != k))
                    if m <= rest:
                        return
                count += 1
                return
            for i in range(start, len(cands)):
                if not cands[i] <= union:
                    extend(i + 1, chosen + [cands[i]], union | cands[i])

        extend(0, [], frozenset())
        total += count
    return total


# ---------------------------------------------------------------------------
# manifests

class Built:
    """A manifest document plus the facts its construction guarantees."""

    def __init__(self, doc, facts):
        self.doc = doc
        self.facts = facts


def _fmt(field, a):
    return str(a) if field == "Q" else a % P


def _fmt_matrix(field, m):
    return [[_fmt(field, a) for a in row] for row in m]


def symplectic_manifest(rng: random.Random, points, opens, field: str,
                        rank: int, form_rank=None) -> Built:
    """Manifest with one alternating form (constant over the points) of the
    given rank, a nondegenerate pairing ``dot``, and when the form is
    nondegenerate a Lagrangian ``L`` and a proper co-isotropic ``C`` per
    point; also a sub ``G`` of half the rank in general position and a
    nonzero one-row seed covector ``t``.

    The form is B^T J B with B unimodular, so u |-> B u carries it to the
    standard block form J; L and C are preimages of coordinate subspaces
    that are Lagrangian and co-isotropic for J.  B, the pairing and each
    point's G are the median-sized of DRAWS random draws.
    """
    n = rank
    r = n - n % 2 if form_rank is None else form_rank
    ops = 2 * n

    def draw():
        return unimodular(rng, n, ops)

    def draw_form():
        b, binv = draw()
        return matmul(matmul(transpose(b), standard_block(n, r)), b), binv

    # the form's and the subs' entries come from these two matrices
    form, binv = median_draw(
        draw_form, lambda d: entry_bits(d[0]) + entry_bits(d[1]), DRAWS)
    gram, _ = median_draw(draw, lambda d: entry_bits(d[0]), DRAWS)
    cols = transpose(binv)  # cols[k] = B^-1 e_k
    subs = {}
    reduced = {}
    if r == n and n >= 2:
        # C adds a fixed number of partners to L, so its size (and the cost
        # of reducing it) does not depend on the seed
        lag = {x: [cols[2 * k] for k in range(n // 2)] for x in points}
        coiso = {}
        for x in points:
            extra = sorted(rng.sample(range(n // 2), n // 4))
            coiso[x] = lag[x] + [cols[2 * k + 1] for k in extra]
            reduced[x] = 2 * len(extra)
        subs["L"] = lag
        subs["C"] = coiso
    # G: a generic sub of half the rank, full row rank by construction
    subs["G"] = {x: median_draw(lambda: draw()[0][:max(1, n // 2)],
                                entry_bits, DRAWS)
                 for x in points}
    seed_row = [0] * n
    while not any(seed_row):
        seed_row = [rng.randint(-3, 3) for _ in range(n)]
    doc = {
        "format": FORMAT,
        "space": {"points": list(points), "opens": [list(o) for o in opens]},
        "field": "Q" if field == "Q" else {"Fp": P},
        "rank": n,
    }
    if r >= 2:
        doc["form"] = {x: _fmt_matrix(field, form) for x in points}
    doc["pairings"] = {"dot": {x: _fmt_matrix(field, gram) for x in points}}
    doc["submodules"] = {name: {x: _fmt_matrix(field, rows[x]) for x in points}
                         for name, rows in sorted(subs.items())}
    doc["morphisms"] = {"t": {x: _fmt_matrix(field, [seed_row]) for x in points}}
    facts = {"points": list(points), "rank": n, "form_rank": r if r >= 2 else 0,
             "subs": {name: {x: len(rows[x]) for x in points}
                      for name, rows in subs.items()},
             "reduced_dims": reduced}
    return Built(doc, facts)
