"""Bilinear pairings of module sheaves: duality, annihilators, transposes.

A pairing (``PairingSheaf``, a data type kept in ``sheaf``) is a family of
gram matrices, one per point, evaluating two sections pointwise.  The gram
family is a ``PointFamily``, checked like every per-point map: each point
exactly once, each matrix with the shape of the two stalks there.  An alternating 2-form is a pairing too, so one
evaluation serves pairings, forms and reduced forms alike.  Duals of free
finite-rank sheaves are identified with the sheaves themselves (functionals
are row vectors on the standard basis), which turns every "within an
isomorphism" statement into an equality of canonical data that tests can
compare directly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ._records import record
from .exactalg import (
    Matrix,
    Subspace,
    coordinates,
    inverse,
    kernel_basis,
    orthogonal_complement,
    rank_of,
    zero_vector,
)
from .sheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    PairingSheaf,
    ParentMismatch,
    QuotientSheaf,
    Section,
    SubmoduleSheaf,
    quotient,
)


class Degenerate(ValueError):
    pass


class NotInvariant(ValueError):
    def __init__(self, point: str, vector: tuple):
        super().__init__("stalk at %r is not invariant, witness %r" % (point, vector))
        self.point = point
        self.vector = vector


def canonical_pairing(e: FreeModuleSheaf) -> PairingSheaf:
    """Evaluation of row functionals on vectors: identity gram everywhere."""
    eye = Matrix.identity(e.field, e.rank)
    return PairingSheaf(e, e, {x: eye for x in e.space.points})


@record
class NondegeneracyResult:
    ok: bool
    point: Optional[str] = None
    side: Optional[str] = None          # "left" | "right"
    witness: Optional[Section] = None   # nonzero section killed by the pairing

    def __bool__(self):
        return self.ok


def is_nondegenerate(p: PairingSheaf) -> NondegeneracyResult:
    """Pointwise full rank with equal stalk dimensions on both sides."""
    for x in p.space.points:
        g = p.gram[x]
        r = rank_of(g)
        if g.rows == g.cols == r:
            continue
        u = p.space.minimal_open(x)
        if r < g.cols:
            vec = kernel_basis(g).basis[0]
            side, module = "right", p.right
        else:
            vec = kernel_basis(g.transpose()).basis[0]
            side, module = "left", p.left
        values = {y: zero_vector(p.field, module.stalk_dim(y))
                  for y in p.space.member_points(u)}
        values[x] = vec
        return NondegeneracyResult(False, x, side, Section(u, values))
    return NondegeneracyResult(True)


def theta(p: PairingSheaf) -> MorphismSheaf:
    """The duality isomorphism t -> phi(., t), as a map into the dual side.

    With functionals written as row vectors, the matrix at each point is the
    gram matrix itself; nondegeneracy makes it invertible everywhere.
    """
    check = is_nondegenerate(p)
    if not check:
        raise Degenerate("pairing is degenerate at %r (%s side)"
                         % (check.point, check.side))
    return MorphismSheaf(p.right, p.left, p.gram)


def annihilator(p: PairingSheaf, g: SubmoduleSheaf) -> SubmoduleSheaf:
    """Stalkwise: everything on the right killed by the given left stalks.

    With the identity gram on a free sheaf this is the plain annihilator of
    a sub-sheaf inside the dual.
    """
    if g.parent != p.left:
        raise ParentMismatch("sub-sheaf does not live in the left side")
    return SubmoduleSheaf(p.right, g.stalks.map(
        lambda x, stalk: orthogonal_complement(stalk, p.gram[x])))


def left_annihilator(p: PairingSheaf, h: SubmoduleSheaf) -> SubmoduleSheaf:
    """Everything on the left killed by the given right stalks."""
    return annihilator(p.swapped(), h)


def transpose_morphism(m: MorphismSheaf) -> MorphismSheaf:
    """Precomposition on functionals; pointwise the matrix transpose."""
    return m.transpose()


def transpose_endomorphism(p: PairingSheaf, s: MorphismSheaf) -> MorphismSheaf:
    """The unique partner T with gram T = S^T gram at every point."""
    mats = {}
    for x, g in p.gram.items():
        ginv = inverse(g)
        if ginv is None:
            raise Degenerate("pairing is degenerate at %r" % (x,))
        mats[x] = ginv @ s.mats[x].transpose() @ g
    return MorphismSheaf(p.right, p.right, mats)


@record
class InducedPairing:
    """Nondegenerate pairing of a sub-sheaf with the quotient by its annihilator."""

    pairing: PairingSheaf          # left: the sub-sheaf, right: the quotient
    perp: SubmoduleSheaf
    quotient: QuotientSheaf
    projection: MorphismSheaf


def induced_pairing(p: PairingSheaf, g: SubmoduleSheaf) -> InducedPairing:
    """Pair stalk-basis vectors of ``g`` against quotient representatives.

    The value only depends on the class of the representative because the
    annihilator is quotiented away; the result is square and invertible at
    every point.
    """
    check = is_nondegenerate(p)
    if not check:
        raise Degenerate("pairing is degenerate at %r" % (check.point,))
    perp = annihilator(p, g)
    quot, proj = quotient(p.right, perp)
    gram = {}
    for x in p.space.points:
        bg = g.stalks[x].matrix()
        c = quot.complements[x].matrix()
        gr = bg @ p.gram[x] @ c.transpose()
        if gr.rows != gr.cols or rank_of(gr) != gr.rows:
            raise RuntimeError("induced pairing failed to be nondegenerate at %r" % x)
        gram[x] = gr
    return InducedPairing(PairingSheaf(g, quot, gram), perp, quot, proj)


@record
class InducedEndomorphism:
    restricted: MorphismSheaf      # the endomorphism cut down to the sub-sheaf
    induced: MorphismSheaf         # its transpose pushed to the quotient
    pairing: InducedPairing
    transpose: MorphismSheaf       # the transpose on the full right side


def induced_endomorphism(p: PairingSheaf, s: MorphismSheaf,
                         g: SubmoduleSheaf) -> InducedEndomorphism:
    """Restrict an endomorphism to an invariant sub-sheaf and push its
    transpose to the quotient; the two stay transposes for the induced
    pairing.  Raises ``NotInvariant`` with a witness vector otherwise."""
    restricted_mats = {}
    for x in p.space.points:
        stalk = g.stalks[x]
        images = (stalk.matrix() @ s.mats[x].transpose()).entries
        restricted_mats[x] = coordinates(stalk, images)
        if restricted_mats[x] is None:
            raise NotInvariant(x, next(v for v, image in zip(stalk.basis, images)
                                       if not stalk.contains(image)))
    t = transpose_endomorphism(p, s)
    ip = induced_pairing(p, g)
    induced_mats = {}
    for x in p.space.points:
        perp, tx = ip.perp.stalks[x], t.mats[x]
        if coordinates(perp, (perp.matrix() @ tx.transpose()).entries) is None:
            raise RuntimeError("annihilator failed to be invariant at %r" % x)
        q = ip.quotient.proj[x]
        c = ip.quotient.complements[x].matrix()
        induced_mats[x] = q @ tx @ c.transpose()
        if (induced_mats[x] @ q).entries != (q @ tx).entries:
            raise RuntimeError("induced map does not commute with projection at %r" % x)
        lhs = ip.pairing.gram[x] @ induced_mats[x]
        rhs = restricted_mats[x].transpose() @ ip.pairing.gram[x]
        if lhs.entries != rhs.entries:
            raise RuntimeError("induced maps are not transposes at %r" % x)
    return InducedEndomorphism(
        MorphismSheaf(g, g, restricted_mats),
        MorphismSheaf(ip.quotient, ip.quotient, induced_mats),
        ip, t)


def quotient_dual_iso(e: FreeModuleSheaf, f: SubmoduleSheaf) -> MorphismSheaf:
    """Identify functionals on the quotient with the annihilator sub-sheaf.

    Pointwise the matrix is the transposed projection, a map into the dual
    of ``e``; its columns span exactly the stalks of the annihilator and
    kill the denominator.
    """
    if f.parent != e:
        raise ParentMismatch("sub-sheaf does not live in the given sheaf")
    quot, proj = quotient(e, f)
    perp = annihilator(canonical_pairing(e), f)
    mats = {}
    for x in e.space.points:
        q = proj.mats[x]
        image = Subspace.span(e.field, e.rank, q.entries)
        if image != perp.stalks[x]:
            raise RuntimeError("dual of the quotient missed the annihilator at %r" % x)
        if image.dim != quot.stalk_dim(x):
            raise RuntimeError("quotient dual map is not injective at %r" % x)
        mats[x] = q.transpose()
    return MorphismSheaf(quot, e, mats)


# ---------------------------------------------------------------------------
# exactness of the two hom functors against a probe

@record
class OpenHomReport:
    open: int
    dims_into: Tuple[int, int, int]    # maps-from-probe chain dimensions
    dims_from: Tuple[int, int, int]    # maps-to-probe chain dimensions
    into_injective: bool
    into_exact: bool
    from_injective: bool
    from_exact: bool

    @property
    def ok(self) -> bool:
        return (self.into_injective and self.into_exact
                and self.from_injective and self.from_exact)


@record
class HomExactnessReport:
    opens: List[OpenHomReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.opens)


def _exactness(first: Matrix, second: Matrix) -> Tuple[Tuple[int, int, int],
                                                        bool, bool]:
    """Chain dimensions, injectivity of ``first`` and image-equals-kernel
    for ``0 -> A -first-> B -second-> C``."""
    image = Subspace.span(first.field, first.rows, first.transpose().entries)
    return ((first.cols, first.rows, second.rows),
            image.dim == first.cols, image == kernel_basis(second))


def _direct_sum(checks) -> Tuple[Tuple[int, int, int], bool, bool]:
    """The verdict on a direct sum of chains: dimensions add up, and it is
    injective or exact when every summand is."""
    return (tuple(sum(c[0][k] for c in checks) for k in range(3)),
            all(c[1] for c in checks), all(c[2] for c in checks))


def check_hom_exactness(f: SubmoduleSheaf,
                        probe: FreeModuleSheaf) -> HomExactnessReport:
    """Apply both hom functors to 0 -> F -> E -> E/F -> 0 over every open.

    Morphism families over an open split point by point, so each hom
    module over U is the direct sum of its points' matrix spaces, and with
    a free probe of rank pr each of those is pr copies of the chain for a
    rank-one probe: B^T, P (maps from the probe) and P^T, B (maps to it),
    with B the stalk basis and P the projection.  Each point's two chains
    are checked once, by injectivity plus image-equals-kernel of canonical
    subspaces.  An open sums pr copies of its points' dimensions (none when
    pr is zero) and holds when all of its points do.
    """
    e = f.parent
    if probe.space != e.space or probe.field != e.field:
        raise ParentMismatch("probe lives on a different space or field")
    _, proj = quotient(e, f)
    pr = probe.rank
    at = {}
    for x in e.space.points:
        b, q = f.stalks[x].matrix(), proj.mats[x]
        at[x] = (_exactness(b.transpose(), q), _exactness(q.transpose(), b))
    reports = []
    for u in range(len(e.space.opens)):
        pts = e.space.member_points(u)
        d_into, into_inj, into_exact = _direct_sum([at[x][0] for x in pts] * pr)
        d_from, from_inj, from_exact = _direct_sum([at[x][1] for x in pts] * pr)
        reports.append(OpenHomReport(u, d_into, d_from,
                                     into_inj, into_exact, from_inj, from_exact))
    return HomExactnessReport(reports)
