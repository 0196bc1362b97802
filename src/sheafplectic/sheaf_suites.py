"""The suite of the sheaf axioms, ``completeness``.

Each record runs ``check_completeness`` on the sections presheaf of a
stalkwise sub-sheaf: each of the manifest's sub-modules, then random ones,
their annihilators under the nondegenerate pairings of the context, their
sums and their intersections.  Only this suite loads ``sheaf``; the
generators and records it shares with the other suites are in ``suites``.
"""

from __future__ import annotations

import random
from typing import List

from .modsheaf import FreeModuleSheaf, intersect_submodules, sum_submodules
from .pairing import annihilator
from .sheaf import check_completeness, sections_presheaf
from .suites import DRAWS, _pairing_sources, _record, rand_stalks


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
