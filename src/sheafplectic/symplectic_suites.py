"""The suites of the symplectic layer, ``darboux`` and ``reduction``, and
the generators only they draw from: skew matrices of a given rank, 2-forms,
symplectic matrices, and co-isotropic sub-sheaves with a Lagrangian inside.
Of the suites, only these load ``symplectic``; the generators and records
they share with the other suites are in ``suites``.
"""

from __future__ import annotations

import random
from typing import List

from .exactalg import Field, Matrix, Subspace
from .modsheaf import FreeModuleSheaf, Section, SubmoduleSheaf, TwoFormSheaf
from .symplectic import (
    NoAdmissibleNeighborhood,
    SymplecticModule,
    ZeroFormAt,
    contract,
    darboux,
    darboux_reconstructs,
    reduce,
    reduce_lagrangian,
    standard_block,
    standard_form,
)
from .suites import DRAWS, _record, rand_invertible, rand_scalar


# ---------------------------------------------------------------------------
# generators

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


# ---------------------------------------------------------------------------
# the suites

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
