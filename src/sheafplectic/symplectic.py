"""Alternating 2-forms on free module sheaves: contraction, the flat map,
constant-rank checks, constructive Darboux decompositions, classification
of sub-sheaves and symplectic reduction.

Covectors are sections whose point values are row vectors; a 2-form
(``TwoFormSheaf``, a data type kept in ``sheaf``) is a pairing of a free
module sheaf with itself whose gram family of coefficient matrices is
alternating: skew with zero diagonal, even in characteristic two.  Like
every per-point map, each coefficient, isomorphism and reduced form family
is a ``PointFamily``, checked one way: each point exactly once, each matrix
with the shape its point needs.  The Darboux routine fixes its
pivots at the requested point and then keeps exactly the largest open
neighbourhood on which every pivot stays nonzero and the residual dies; on
a finite space that floor is the minimal open of the point, and failure
there is reported with the offending witness.  Reconstruction is checked
with one product per point: with the pairs' values as the rows of P and Q,
the wedge sum of a_k ^ b_k is the stacked product [P; Q]^T [Q; -P] =
P^T Q - Q^T P.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ._records import record
from .exactalg import (
    AlternatingResidual,
    Field,
    Matrix,
    Subspace,
    coordinates,
    kernel_basis,
    rank_of,
    rref,
    solve,
    subspace_intersection,
)
from .sheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    ParentMismatch,
    PointFamily,
    QuotientSheaf,
    Section,
    SubmoduleSheaf,
    TwoFormSheaf,
    quotient,
)
from .pairing import annihilator
from .space import FiniteSpace, UnknownPoint


class RankMismatch(ValueError):
    pass


class RankNotConstant(ValueError):
    def __init__(self, x: str, y: str):
        super().__init__("form rank differs between points %r and %r" % (x, y))
        self.points = (x, y)


class ZeroFormAt(ValueError):
    def __init__(self, x: str):
        super().__init__("the form vanishes at point %r" % x)
        self.point = x


class NoAdmissibleNeighborhood(ValueError):
    def __init__(self, x: str, witness: str):
        super().__init__("no neighbourhood of %r works: pivot or rank fails "
                         "at %r inside the minimal open" % (x, witness))
        self.point = x
        self.witness = witness


class BadSeed(ValueError):
    pass


class NotLagrangian(ValueError):
    pass


class NotCoisotropic(ValueError):
    pass


def contract(w: TwoFormSheaf, s: Section) -> Section:
    """Inner product with a section: the covector t -> w(s, t)."""
    for x, v in s.values.items():
        if len(v) != w.module.rank:
            raise RankMismatch("section value at %r has length %d, rank is %d"
                               % (x, len(v), w.module.rank))
    return Section(s.over, {x: w.coeff[x].vec_mat(v) for x, v in s.values.items()})


@record
class FlatResult:
    """The lowering map of a 2-form with its image, kernel and quotient."""

    map: MorphismSheaf
    image: SubmoduleSheaf            # row-functional stalks of the image
    kernel: SubmoduleSheaf
    quotient: QuotientSheaf          # module / kernel
    projection: MorphismSheaf
    iso: Dict[str, Matrix]           # quotient coords -> image coords, invertible

    def __post_init__(self):
        self.iso = PointFamily(
            self.kernel.space.points, self.iso,
            lambda x: (self.image.stalk_dim(x), self.quotient.stalk_dim(x)))


def flat(w: TwoFormSheaf) -> FlatResult:
    """s -> -i(s)w as a map into the dual; kernel and image stalkwise.

    For skew coefficients the matrix is the coefficient matrix itself.  The
    quotient by the kernel is identified with the image through an explicit
    pointwise isomorphism.
    """
    e = w.module
    field = e.field
    image = SubmoduleSheaf(e, w.coeff.map(
        lambda x, a: Subspace.span(field, e.rank, a.entries)))
    kernel = SubmoduleSheaf(e, w.coeff.map(lambda x, a: kernel_basis(a)))
    quot, proj = quotient(e, kernel)
    iso = {}
    for x in e.space.points:
        iso[x] = coordinates(image.stalks[x], (quot.complements[x].matrix()
                                               @ w.coeff[x].transpose()).entries)
        if iso[x] is None:
            raise RuntimeError("lowered representative escaped the image at %r" % x)
        d = quot.stalk_dim(x)
        if d and rank_of(iso[x]) != d:
            raise RuntimeError("quotient-image comparison is singular at %r" % x)
    return FlatResult(MorphismSheaf(e, e, w.coeff), image, kernel, quot, proj, iso)


def form_rank(w: TwoFormSheaf, u: int) -> int:
    """Common rank of the coefficients over a nonempty open; even by skewness."""
    pts = w.space.member_points(u)
    if not pts:
        raise ValueError("rank over the empty open is undefined")
    ranks = [(x, rank_of(w.coeff[x])) for x in pts]
    first_x, first_r = ranks[0]
    for x, r in ranks[1:]:
        if r != first_r:
            raise RankNotConstant(first_x, x)
    return first_r


# ---------------------------------------------------------------------------
# Darboux decomposition

@record
class DarbouxResult:
    """Covector pairs reconstructing the form on a neighbourhood.

    ``pivots`` traces each elimination step; ``permutation`` records the
    basis reordering implied by entry pivots so runs are reproducible.
    """

    at: str
    neighborhood: int
    pairs: List[Tuple[Section, Section]]
    half_rank: int
    pivots: tuple
    permutation: tuple


def _replay(a: Matrix, steps: tuple, seed_row: Optional[tuple],
            abs_normalize: bool):
    """Run a fixed pivot program at one point.

    Returns ``(ok, pairs, residual)``, the residual an
    ``AlternatingResidual``; ``ok`` is False as soon as a pivot vanishes.
    Reconstruction at the point holds exactly when the final residual is
    zero.
    """
    resid = AlternatingResidual(a)
    pairs = []
    for step in steps:
        if step[0] == "seed":
            pair = resid.seed(step[1], seed_row)
        else:
            pair = resid.pivot(step[1], step[2], abs_normalize)
        if pair is None:
            return False, pairs, resid
        pairs.append(pair)
    return True, pairs, resid


def darboux(w: TwoFormSheaf, x: str, seed: Optional[Section] = None,
            abs_normalize: bool = False) -> DarbouxResult:
    """Decompose the form near ``x`` as a sum of wedge products of covectors.

    Pivots are chosen at ``x`` (lexicographically first nonzero entry) and
    the returned neighbourhood is the largest open around ``x`` on which
    every pivot stays nonzero and the rank stays put, so the reconstruction
    is exact at all of its points.  With a seed covector in the image of the
    flat map, the first pair's second member is the seed itself.
    """
    space = w.space
    field = w.field
    if x not in space.points:
        raise UnknownPoint(x)
    if abs_normalize and not field.ordered:
        raise ValueError("absolute-value normalization needs an ordered field")
    if w.coeff[x].is_zero():
        raise ZeroFormAt(x)

    seed_rows: Dict[str, tuple] = {}
    if seed is not None:
        candidate_pts = tuple(space.member_points(seed.over))
        if x not in candidate_pts:
            raise BadSeed("seed is not defined at %r" % x)
        for y in candidate_pts:
            row = tuple(seed.values[y])
            if len(row) != w.module.rank:
                raise BadSeed("seed row at %r has wrong length" % y)
            if solve(w.coeff[y], tuple(-c for c in row)) is None:
                raise BadSeed("seed is outside the image of the flat map at %r" % y)
            seed_rows[y] = row
        if not any(seed_rows[x]):
            raise BadSeed("seed vanishes at %r" % x)
    else:
        candidate_pts = space.points

    # derive the pivot program at x, where it succeeds by construction
    steps: List[tuple] = []
    if seed is not None:
        steps.append(("seed", next(i for i, c in enumerate(seed_rows[x]) if c)))
    # the seed step cannot fail here: its pivot is seed_rows[x]'s first
    # nonzero entry
    _, pairs, resid = _replay(w.coeff[x], tuple(steps), seed_rows.get(x),
                              abs_normalize)
    while True:
        entry = resid.first_nonzero_entry()
        if entry is None:
            break
        steps.append(("entry",) + entry)
        pairs.append(resid.pivot(entry[0], entry[1], abs_normalize))
        if abs_normalize and not resid.row_is_zero(entry[0]):
            raise ValueError("absolute-value normalization only reconstructs "
                             "positive-pivot instances")

    steps_t = tuple(steps)
    m = len(steps_t)

    # replay pointwise; a point is good when all pivots survive and the
    # residual dies, which pins the rank at exactly twice the step count
    good = {x}
    point_pairs: Dict[str, list] = {x: pairs}
    for y in candidate_pts:
        if y == x:
            continue
        ok, pairs, res = _replay(w.coeff[y], steps_t, seed_rows.get(y),
                                 abs_normalize)
        if ok and res.is_zero():
            good.add(y)
            point_pairs[y] = pairs
    u = space.largest_open_inside(good, x)
    if u is None:
        min_u = space.minimal_open(x)
        witness = next(y for y in space.member_points(min_u) if y not in good)
        raise NoAdmissibleNeighborhood(x, witness)

    upts = space.member_points(u)
    pairs_sections = []
    for k in range(m):
        s1 = Section(u, {y: point_pairs[y][k][0] for y in upts})
        s2 = Section(u, {y: point_pairs[y][k][1] for y in upts})
        pairs_sections.append((s1, s2))

    if form_rank(w, u) != 2 * m:
        raise RuntimeError("rank mismatch on the returned neighbourhood")

    used = []
    for step in steps_t:
        if step[0] == "entry":
            used.extend([step[1], step[2]])
    permutation = tuple(used) + tuple(i for i in range(w.module.rank)
                                      if i not in used)
    return DarbouxResult(x, u, pairs_sections, m, steps_t, permutation)


def darboux_reconstructs(w: TwoFormSheaf, result: DarbouxResult) -> bool:
    """Exact equality of coefficients with the wedge sum on the
    neighbourhood, the product [P; Q]^T [Q; -P] = P^T Q - Q^T P."""
    field, n = w.field, w.module.rank
    for y in w.space.member_points(result.neighborhood):
        p = [s1.values[y] for s1, _ in result.pairs]
        q = [s2.values[y] for _, s2 in result.pairs]
        left = Matrix.from_rows(field, p + q, cols=n)
        right = Matrix.from_rows(field, q + [[-a for a in r] for r in p], cols=n)
        if (left.transpose() @ right).entries != w.coeff[y].entries:
            return False
    return True


# ---------------------------------------------------------------------------
# symplectic structure, classification, reduction

@record
class SymplecticModule:
    """A free module sheaf with a nondegenerate alternating form."""

    module: FreeModuleSheaf
    form: TwoFormSheaf

    def __post_init__(self):
        if self.form.module != self.module:
            raise ParentMismatch("form lives on a different module")
        if self.module.rank % 2 != 0:
            raise ValueError("symplectic rank must be even")
        for x in self.module.space.points:
            if rank_of(self.form.coeff[x]) != self.module.rank:
                raise ValueError("form is degenerate at point %r" % x)


def standard_block(field: Field, n: int, pairs: int) -> Matrix:
    """The n x n skew matrix pairing coordinates (1,2), (3,4), ... for the
    first ``pairs`` pairs, with +1 above the diagonal; its rank is 2 pairs."""
    rows = [[field.zero] * n for _ in range(n)]
    for k in range(pairs):
        rows[2 * k][2 * k + 1] = field.one
        rows[2 * k + 1][2 * k] = -field.one
    return Matrix.from_rows(field, [tuple(r) for r in rows], cols=n)


def standard_form(e: FreeModuleSheaf) -> TwoFormSheaf:
    """Block form pairing coordinates (1,2), (3,4), ... with +1 above the diagonal."""
    if e.rank % 2 != 0:
        raise ValueError("standard form needs even rank")
    j = standard_block(e.field, e.rank, e.rank // 2)
    return TwoFormSheaf(e, {x: j for x in e.space.points})


@record
class Classification:
    isotropic: bool
    coisotropic: bool
    symplectic_sub: bool
    lagrangian: bool
    isotropic_complement: Optional[SubmoduleSheaf] = None


def form_perp(sm: SymplecticModule, f: SubmoduleSheaf) -> SubmoduleSheaf:
    """Stalkwise orthogonal of a sub-sheaf for the symplectic form."""
    if f.parent != sm.module:
        raise ParentMismatch("sub-sheaf lives in a different module")
    return annihilator(sm.form, f)


def classify(sm: SymplecticModule, f: SubmoduleSheaf) -> Classification:
    """Isotropic, co-isotropic, symplectic and Lagrangian flags.

    Lagrangian means the sub-sheaf equals its own orthogonal; the isotropic
    complement built by ``lagrangian_complement`` is attached as certificate.
    """
    perp = form_perp(sm, f)
    symplectic_sub = True
    for x in sm.module.space.points:
        b = f.stalks[x].matrix()
        restricted = b @ sm.form.coeff[x] @ b.transpose()
        if rank_of(restricted) != f.stalks[x].dim:
            symplectic_sub = False
            break
    lagrangian = f == perp
    return Classification(f <= perp, perp <= f, symplectic_sub, lagrangian,
                          _isotropic_complement(sm, f) if lagrangian else None)


def lagrangian_complement(sm: SymplecticModule, f: SubmoduleSheaf) -> SubmoduleSheaf:
    """Isotropic complement of a Lagrangian sub-sheaf, built stalk by stalk.

    Each new generator is the first canonical-basis vector of the orthogonal
    of the already chosen ones that falls outside the running sum; the rule
    is deterministic and always terminates at half rank.
    """
    perp = form_perp(sm, f)
    for x in sm.module.space.points:
        if f.stalks[x] != perp.stalks[x]:
            raise NotLagrangian("stalk at %r does not equal its orthogonal" % x)
    return _isotropic_complement(sm, f)


def _isotropic_complement(sm: SymplecticModule,
                          f: SubmoduleSheaf) -> SubmoduleSheaf:
    field = sm.module.field
    n = sm.module.rank
    stalks = {}
    for x in sm.module.space.points:
        chosen: List[tuple] = []
        running = f.stalks[x]
        while running.dim < n:
            # the orthogonal of the chosen rows C is the kernel of C omega
            candidates = kernel_basis(Matrix.from_rows(field, chosen, cols=n)
                                      @ sm.form.coeff[x]).basis
            # among the columns [running | candidates], the first pivot past
            # running's basis is the first candidate outside the running sum
            columns = running.basis + candidates
            _, pivots = rref(field, list(zip(*columns)), len(columns))
            if len(pivots) == running.dim:
                raise RuntimeError("complement construction got stuck at %r" % x)
            chosen.append(candidates[pivots[running.dim] - running.dim])
            running = Subspace.span(field, n, running.basis + (chosen[-1],))
        g = Subspace.span(field, n, chosen)
        bg = g.matrix()
        if not (bg @ sm.form.coeff[x] @ bg.transpose()).is_zero():
            raise RuntimeError("complement is not isotropic at %r" % x)
        if subspace_intersection(f.stalks[x], g).dim != 0:
            raise RuntimeError("complement meets the sub-sheaf at %r" % x)
        stalks[x] = g
    return SubmoduleSheaf(sm.module, stalks)


@record
class ReducedModule:
    """Quotient of a sub-sheaf by its self-orthogonal part, with the induced form.

    The reduced form is one skew matrix per point on the quotient's
    complement coordinates; its dimensions may vary from point to point, and
    it is nondegenerate everywhere.  ``PairingSheaf(red.quotient,
    red.quotient, red.reduced_form).evaluate`` evaluates it on sections.
    """

    source: SymplecticModule
    by: SubmoduleSheaf
    perp: SubmoduleSheaf
    quotient: QuotientSheaf
    projection: MorphismSheaf
    reduced_form: Dict[str, Matrix]

    def __post_init__(self):
        self.reduced_form = PointFamily(
            self.by.space.points, self.reduced_form,
            lambda x: (self.reduced_dim(x),) * 2)

    def reduced_dim(self, x: str) -> int:
        return self.quotient.stalk_dim(x)

    @property
    def coisotropic(self) -> bool:
        """Whether the sub-sheaf contains its orthogonal, so that the
        reduction is by the whole orthogonal (the classical case)."""
        return self.perp <= self.by


def reduce(sm: SymplecticModule, f: SubmoduleSheaf) -> ReducedModule:
    """Reduction of a sub-sheaf: quotient by its intersection with its
    orthogonal, carrying the induced nondegenerate form.

    Co-isotropy is not required here; when it holds the denominator is the
    whole orthogonal, which is the classical reduced module.
    """
    perp = form_perp(sm, f)
    core = SubmoduleSheaf(sm.module, f.stalks.map(
        lambda x, stalk: subspace_intersection(stalk, perp.stalks[x])))
    quot, proj = quotient(sm.module, core, within=f)
    reduced = {}
    for x in sm.module.space.points:
        c = quot.complements[x].matrix()
        g = c @ sm.form.coeff[x] @ c.transpose()
        if not g.is_skew():
            raise RuntimeError("reduced form not alternating at %r" % x)
        if rank_of(g) != quot.stalk_dim(x):
            raise RuntimeError("reduced form degenerate at %r" % x)
        reduced[x] = g
    return ReducedModule(sm, f, perp, quot, proj, reduced)


@record
class QuotientSubmodule:
    """Stalkwise subspaces of a reduction, in quotient coordinates."""

    reduction: ReducedModule
    stalks: Dict[str, Subspace]

    def __post_init__(self):
        self.stalks = PointFamily(self.space.points, self.stalks,
                                  self.reduction.reduced_dim)

    @property
    def space(self) -> FiniteSpace:
        return self.reduction.by.space

    def stalk_dim(self, x: str) -> int:
        return self.stalks[x].dim


def reduce_lagrangian(sm: SymplecticModule, f: SubmoduleSheaf,
                      g: SubmoduleSheaf) -> QuotientSubmodule:
    """Project a Lagrangian through the reduction by a co-isotropic sub-sheaf.

    The image of their intersection is Lagrangian for the reduced form:
    isotropic of exactly half the reduced dimension at every point.
    """
    red = reduce(sm, f)
    if not red.coisotropic:
        raise NotCoisotropic("reduction needs a co-isotropic sub-sheaf")
    if g != form_perp(sm, g):
        raise NotLagrangian("second argument must be Lagrangian")
    field = sm.module.field
    stalks = {}
    for x in sm.module.space.points:
        meet = subspace_intersection(g.stalks[x], f.stalks[x])
        rows = (meet.matrix() @ red.projection.mats[x].transpose()).entries
        img = Subspace.span(field, red.reduced_dim(x), rows)
        b = img.matrix()
        if not (b @ red.reduced_form[x] @ b.transpose()).is_zero():
            raise RuntimeError("projected Lagrangian is not isotropic at %r" % x)
        if 2 * img.dim != red.reduced_dim(x):
            raise RuntimeError("projected Lagrangian has wrong dimension at %r" % x)
        stalks[x] = img
    return QuotientSubmodule(red, stalks)
