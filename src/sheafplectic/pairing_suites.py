"""The suites of annihilator sheaves: ``annihilator-theorem`` (the analogue
of the main theorem on annihilators), ``transpose`` and ``hom-exactness``,
and the invariant endomorphisms that only the first one draws.  A check of
one of them loads this module, ``suites`` and ``pairing`` with the layers
below it, but neither the sheaf axioms nor ``symplectic``.
"""

from __future__ import annotations

import random
from typing import List

from .exactalg import (
    Matrix,
    Subspace,
    echelon_complement,
    inverse,
    kernel_basis,
    subspace_intersection,
    subspace_sum,
)
from .modsheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    SubmoduleSheaf,
    intersect_submodules,
    sum_submodules,
)
from .pairing import (
    NotInvariant,
    annihilator,
    canonical_pairing,
    check_hom_exactness,
    induced_endomorphism,
    left_annihilator,
    transpose_endomorphism,
)
from .suites import (
    DRAWS,
    _pairing_sources,
    _record,
    rand_invertible,
    rand_matrix,
    rand_scalar,
    rand_stalks,
)


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
