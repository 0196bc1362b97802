"""Randomized instance generators and the named invariant suites.

Every draw goes through an explicit ``random.Random`` so suite output is a
pure function of the seed; the CLI check command and the acceptance tests
both build on these.

A suite records only what its calls' guards do not already enforce: a
tripped guard (a library call's ``RuntimeError``) is exit 4, not a fail.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .exactalg import (
    Field,
    Matrix,
    Subspace,
    echelon_complement,
    inverse,
    kernel_basis,
    rank_of,
    subspace_intersection,
    subspace_sum,
)
from .space import FiniteSpace
from .sheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    Section,
    SubmoduleSheaf,
    check_completeness,
    intersect_submodules,
    sections_presheaf,
    sum_submodules,
)
from .pairing import (
    NotInvariant,
    PairingSheaf,
    annihilator,
    canonical_pairing,
    check_hom_exactness,
    induced_endomorphism,
    is_nondegenerate,
    left_annihilator,
    transpose_endomorphism,
)
from .symplectic import (
    NoAdmissibleNeighborhood,
    SymplecticModule,
    TwoFormSheaf,
    ZeroFormAt,
    contract,
    darboux,
    darboux_reconstructs,
    reduce,
    reduce_lagrangian,
    standard_block,
    standard_form,
)


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


def rand_subspace(field: Field, rng: random.Random, n: int,
                  dim: Optional[int] = None) -> Subspace:
    if dim is None:
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


def rand_skew_of_rank(field: Field, rng: random.Random, n: int,
                      r: int) -> Matrix:
    """Skew matrix of exact rank ``r``: congruence image of a standard block."""
    j = standard_block(field, n, r // 2)
    p = rand_invertible(field, rng, n)
    return p.transpose() @ j @ p


def rand_rankwise_form(e: FreeModuleSheaf, rng: random.Random,
                       r: int, constant: bool = True) -> TwoFormSheaf:
    if constant:
        m = rand_skew_of_rank(e.field, rng, e.rank, r)
        return TwoFormSheaf(e, {x: m for x in e.space.points})
    return TwoFormSheaf(e, {x: rand_skew_of_rank(e.field, rng, e.rank, r)
                            for x in e.space.points})


def rand_symplectic_matrix(field: Field, rng: random.Random, n: int) -> Matrix:
    """Product of four symplectic transvections for the standard block form."""
    j = standard_block(field, n, n // 2)
    m = Matrix.identity(field, n)
    eye = m.entries
    for _ in range(4):
        v = [rand_scalar(field, rng, -2, 2) for _ in range(n)]
        if not any(v):
            v[rng.randrange(n)] = field.one
        lam = rand_scalar(field, rng, -2, 2)
        jv = j.mat_vec(v)
        step = Matrix.from_rows(
            field,
            [tuple(eye[i][k] + lam * v[i] * jv[k] for k in range(n))
             for i in range(n)], cols=n)
        m = m @ step
    return m


def rand_coisotropic_with_lagrangian(e: FreeModuleSheaf, rng: random.Random):
    """Stalkwise co-isotropic sub-sheaf for the standard form, plus a
    Lagrangian, both twisted by pointwise symplectic matrices."""
    field = e.field
    n = e.rank
    eye = Matrix.identity(field, n).entries
    f_stalks = {}
    g_stalks = {}
    for x in e.space.points:
        pairs = [k for k in range(n // 2) if rng.random() < 0.5]
        f_rows = [eye[2 * k] for k in range(n // 2)]
        f_rows += [eye[2 * k + 1] for k in pairs]
        m_t = rand_symplectic_matrix(field, rng, n).transpose()
        # the Lagrangian's generators are the first n/2 twisted rows
        twisted = (Matrix.from_rows(field, f_rows, cols=n) @ m_t).entries
        f_stalks[x] = Subspace.span(field, n, twisted)
        g_stalks[x] = Subspace.span(field, n, twisted[:n // 2])
    return SubmoduleSheaf(e, f_stalks), SubmoduleSheaf(e, g_stalks)


def rand_invariant_endo(e: FreeModuleSheaf, g: SubmoduleSheaf,
                        rng: random.Random) -> MorphismSheaf:
    """Endomorphism leaving the given stalks invariant: block upper
    triangular in a basis adapted to each stalk."""
    field = e.field
    n = e.rank
    mats = {}
    for x in e.space.points:
        k = g.stalks[x].dim
        rows = g.stalks[x].basis + echelon_complement(g.stalks[x]).basis
        m = Matrix.from_rows(field, rows, cols=n)
        blocks = [[rand_scalar(field, rng) if (i < k or j >= k) else field.zero
                   for j in range(n)] for i in range(n)]
        l = Matrix.from_rows(field, [tuple(r) for r in blocks], cols=n)
        mt = m.transpose()
        mats[x] = mt @ l @ inverse(mt)
    return MorphismSheaf(e, e, mats)


# ---------------------------------------------------------------------------
# records
#
# ``ctx`` in the suites below is anything with ``space``, ``field``, ``rank``,
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
# the named suites

DRAWS = 5  # random draws per suite and source; completeness takes one fewer


def suite_annihilator_theorem(ctx, rng: random.Random) -> List[dict]:
    """Dimension formula, double orthogonal, De Morgan laws, inclusion
    reversal, direct-sum splitting and induced transposes, for every
    nondegenerate pairing available.  Induced duality has no record:
    ``induced_pairing``'s guard checks it and is exit 4 if it trips."""
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    out = []
    for src_name, p in _pairing_sources(ctx, "annihilator-theorem", out):
        ok = {k: True for k in "abcdefh"}
        for _ in range(DRAWS):
            g = rand_stalks(e, rng)
            h = rand_stalks(e, rng)
            perp_g = annihilator(p, g)
            perp_h = annihilator(p, h)
            if any(g.stalks[x].dim + perp_g.stalks[x].dim != ctx.rank
                   for x in ctx.space.points):
                ok["a"] = False
            if left_annihilator(p, perp_g) != g:
                ok["b"] = False
            big = sum_submodules([g, h])
            perp_big = annihilator(p, big)
            if perp_big != intersect_submodules([perp_g, perp_h]):
                ok["c"] = False
            if annihilator(p, intersect_submodules([g, h])) != \
                    sum_submodules([perp_g, perp_h]):
                ok["d"] = False
            if not perp_big <= perp_g or (g != big and perp_g == perp_big):
                ok["e"] = False
            split = {x: rand_invertible(ctx.field, rng, ctx.rank)
                     for x in ctx.space.points}
            cut = rng.randint(0, ctx.rank)
            ga = SubmoduleSheaf(e, {x: Subspace.span(ctx.field, ctx.rank,
                                                     split[x].entries[:cut])
                                    for x in ctx.space.points})
            gb = SubmoduleSheaf(e, {x: Subspace.span(ctx.field, ctx.rank,
                                                     split[x].entries[cut:])
                                    for x in ctx.space.points})
            pa, pb = annihilator(p, ga), annihilator(p, gb)
            for x in ctx.space.points:
                if subspace_sum(pa.stalks[x], pb.stalks[x]) != \
                        Subspace.full(ctx.field, ctx.rank) or \
                        subspace_intersection(pa.stalks[x], pb.stalks[x]).dim:
                    ok["f"] = False
            endo = rand_invariant_endo(e, g, rng)
            try:
                induced_endomorphism(p, endo, g)
            except NotInvariant:
                ok["h"] = False
        for part in "abcdefh":
            out.append(_record("annihilator-theorem/%s/%s" % (src_name, part),
                               ok[part]))
    return out


def suite_transpose(ctx, rng: random.Random) -> List[dict]:
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    out = []
    ident = MorphismSheaf.identity_on(e)
    t_id = ident.transpose()
    out.append(_record("transpose/identity",
                       all(t_id.mats[x].entries == ident.mats[x].entries
                           for x in ctx.space.points)))
    add_ok = comp_ok = inv_ok = kernel_ok = True
    for _ in range(DRAWS):
        a = MorphismSheaf(e, e, {x: rand_matrix(ctx.field, rng, ctx.rank, ctx.rank)
                                 for x in ctx.space.points})
        b = MorphismSheaf(e, e, {x: rand_matrix(ctx.field, rng, ctx.rank, ctx.rank)
                                 for x in ctx.space.points})
        ta, tb = a.transpose(), b.transpose()
        if (a + b).transpose().mats != (ta + tb).mats:
            add_ok = False
        if b.compose(a).transpose().mats != ta.compose(tb).mats:
            comp_ok = False
        iso = MorphismSheaf(e, e, {x: rand_invertible(ctx.field, rng, ctx.rank)
                                   for x in ctx.space.points})
        if iso.transpose().inverse().mats != iso.inverse().transpose().mats:
            inv_ok = False
        # the image of ``a`` at each point is spanned by its columns
        im_sub = SubmoduleSheaf(e, a.mats.map(
            lambda x, m: Subspace.span(ctx.field, ctx.rank, m.transpose().entries)))
        perp = annihilator(canonical_pairing(e), im_sub)
        if any(kernel_basis(ta.mats[x]) != perp.stalks[x]
               for x in ctx.space.points):
            kernel_ok = False
    out.append(_record("transpose/additivity", add_ok))
    out.append(_record("transpose/contravariance", comp_ok))
    out.append(_record("transpose/inverse", inv_ok))
    out.append(_record("transpose/kernel-is-image-annihilator", kernel_ok))
    endo_ok = True
    for src_name, p in _pairing_sources(ctx, "transpose", out):
        for _ in range(DRAWS):
            s = MorphismSheaf(e, e, {x: rand_matrix(ctx.field, rng, ctx.rank,
                                                    ctx.rank)
                                     for x in ctx.space.points})
            t = transpose_endomorphism(p, s)
            for x in ctx.space.points:
                if (p.gram[x] @ t.mats[x]).entries != \
                        (s.mats[x].transpose() @ p.gram[x]).entries:
                    endo_ok = False
    out.append(_record("transpose/endomorphism-identity", endo_ok))
    return out


def suite_completeness(ctx, rng: random.Random) -> List[dict]:
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    out = []
    for name in sorted(ctx.submodules):
        rep = check_completeness(sections_presheaf(ctx.submodules[name]))
        out.append(_record("completeness/submodule:%s" % name, rep.ok))
    sources = _pairing_sources(ctx, "completeness", out)
    for k in range(DRAWS - 1):
        g = rand_stalks(e, rng)
        h = rand_stalks(e, rng)
        rep = check_completeness(sections_presheaf(g))
        out.append(_record("completeness/random-%d" % k, rep.ok))
        _, p = sources[k % len(sources)]
        rep = check_completeness(sections_presheaf(annihilator(p, g)))
        out.append(_record("completeness/annihilator-%d" % k, rep.ok))
        rep = check_completeness(sections_presheaf(sum_submodules([g, h])))
        out.append(_record("completeness/sum-%d" % k, rep.ok))
        rep = check_completeness(sections_presheaf(intersect_submodules([g, h])))
        out.append(_record("completeness/intersection-%d" % k, rep.ok))
    return out


def suite_hom_exactness(ctx, rng: random.Random) -> List[dict]:
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    out = []
    for name in sorted(ctx.submodules):
        probe = FreeModuleSheaf(ctx.space, ctx.field, 1)
        rep = check_hom_exactness(ctx.submodules[name], probe)
        out.append(_record("hom-exactness/submodule:%s" % name, rep.ok))
    for k in range(DRAWS):
        f = rand_stalks(e, rng)
        probe = FreeModuleSheaf(ctx.space, ctx.field, rng.randint(0, 2))
        rep = check_hom_exactness(f, probe)
        out.append(_record("hom-exactness/random-%d" % k, rep.ok))
    return out


def suite_darboux(ctx, rng: random.Random) -> List[dict]:
    out = []
    if ctx.form is not None:
        for x in ctx.space.points:
            name = "darboux/form-at-%s" % x
            try:
                res = darboux(ctx.form, x)
            except ZeroFormAt:
                out.append(_record(name, True, "form vanishes at the point"))
            except NoAdmissibleNeighborhood as exc:
                out.append(_record(name, True, "no admissible neighbourhood, "
                                   "witness %s" % exc.witness))
            else:
                out.append(_record(name, darboux_reconstructs(ctx.form, res)))
    if ctx.rank < 2 or not ctx.space.points:
        out.append(_record("darboux/skipped", True,
                           "rank below two" if ctx.rank < 2 else "no points"))
        return out
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    for k in range(DRAWS):
        r = 2 * rng.randint(1, ctx.rank // 2)
        w = rand_rankwise_form(e, rng, r, constant=True)
        x = ctx.space.points[rng.randrange(len(ctx.space.points))]
        res = darboux(w, x)
        out.append(_record("darboux/random-%d" % k, darboux_reconstructs(w, res)))
        probe = nowhere_zero_lowered_covector(w, x)
        if probe is not None:
            seeded = darboux(w, x, seed=probe)
            ok2 = seeded.pairs[0][1].values == \
                {y: probe.values[y]
                 for y in w.space.member_points(seeded.neighborhood)} and \
                darboux_reconstructs(w, seeded)
            out.append(_record("darboux/seeded-%d" % k, ok2))
    return out


def nowhere_zero_lowered_covector(w: TwoFormSheaf, x: str):
    """A covector in the image of the flat map, nonzero at the given point:
    the contraction of a constant coordinate section, when one works."""
    space = w.space
    full = space.index_of(space.points)
    for vec in Matrix.identity(w.field, w.module.rank).entries:
        section = Section(full, {y: vec for y in space.points})
        lowered = contract(w, section)
        if any(lowered.values[x]) and \
                all(any(lowered.values[y]) for y in space.points):
            return lowered
    return None


def suite_reduction(ctx, rng: random.Random) -> List[dict]:
    out = []
    if ctx.rank % 2 or ctx.rank == 0:
        return [_record("reduction/skipped", True, "odd or zero rank")]
    e = FreeModuleSheaf(ctx.space, ctx.field, ctx.rank)
    sm = SymplecticModule(e, standard_form(e))
    if ctx.form is not None:
        try:
            sm_manifest = SymplecticModule(e, ctx.form)
        except ValueError:
            sm_manifest = None
        if sm_manifest is not None:
            for name in sorted(ctx.submodules):
                f = ctx.submodules[name]
                red = reduce(sm_manifest, f)
                if red.coisotropic:
                    ok = all(red.reduced_dim(x) ==
                             f.stalks[x].dim - red.perp.stalks[x].dim
                             for x in ctx.space.points)
                    out.append(_record("reduction/submodule:%s" % name, ok))
    for k in range(DRAWS):
        f, g = rand_coisotropic_with_lagrangian(e, rng)
        red = reduce(sm, f)
        reduce_lagrangian(red, g)  # its guards check the projected Lagrangian
        ok = all(red.reduced_dim(x) == f.stalks[x].dim - red.perp.stalks[x].dim
                 for x in ctx.space.points)
        out.append(_record("reduction/random-%d" % k, ok))
    return out


SUITES = {
    "completeness": suite_completeness,
    "annihilator-theorem": suite_annihilator_theorem,
    "transpose": suite_transpose,
    "hom-exactness": suite_hom_exactness,
    "darboux": suite_darboux,
    "reduction": suite_reduction,
}


def run_suite(name: str, ctx, seed: int) -> List[dict]:
    return SUITES[name](ctx, random.Random(seed))
