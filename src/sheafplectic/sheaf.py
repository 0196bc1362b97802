"""Free module sheaves on finite spaces, their sub-sheaves and quotients.

The coefficient sheaf is functional: a scalar section over an open set is a
map from its points into the field, so a section of the rank-n free sheaf
is a point-indexed family of n-vectors and restriction is plain function
restriction.  Sub-sheaves are stalkwise: one subspace per point, with the
sections over U being exactly the families that hit the subspace at every
point of U, and ordered stalkwise too: ``f <= g`` when each stalk of ``f``
lies in that of ``g``; their parent may be a quotient.  A quotient reads
its complements and its projection off canonical bases, point by point.

An explicitly presented presheaf is read through its germs: over each open
U, the sections against the compatible families on U's largest minimal
opens.  The sheaf axioms and sheafification are both built on that one
construction, so neither enumerates covers.

Every per-point map (stalks, matrices of morphisms, pairings and forms,
quotient data, section values) is a ``PointFamily``, and all of them are
checked one way: each point of the space appears exactly once, and each
value has the shape its point needs.  Pairings and 2-forms are such data
too, so their types live here; their algebra is in ``pairing`` and
``symplectic``.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, combinations
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ._records import record
from .exactalg import (
    AmbientMismatch,
    Field,
    Matrix,
    Subspace,
    coordinates,
    dot,
    echelon_complement,
    echelon_projection,
    inverse,
    kernel_basis,
    subspace_intersection,
    subspace_sum,
    zero_vector,
)
from .space import Cover, FiniteSpace


class PointFamily(dict):
    """One value per point of a space, read-only after construction.

    The constructor is the single check for per-point maps: ``values`` must
    name every one of ``points`` exactly once (``ValueError`` "missing
    point" / "unknown point" otherwise), and when ``shape`` is given each
    value must have shape ``shape(x)``: ``(rows, cols)`` for a matrix, the
    ambient dimension for a subspace, the length for a vector.  Lookups are
    plain dict lookups; iteration follows the order of ``points``.
    """

    __slots__ = ()

    def __init__(self, points: Sequence[str], values: Mapping,
                 shape: Optional[Callable[[str], object]] = None):
        missing = set(points) - set(values)
        if missing:
            raise ValueError("missing point %r" % sorted(missing)[0])
        extra = set(values) - set(points)
        if extra:
            raise ValueError("unknown point %r" % sorted(extra, key=str)[0])
        super().__init__((x, values[x]) for x in points)
        if shape is not None:
            for x, v in self.items():
                got = ((v.rows, v.cols) if isinstance(v, Matrix) else
                       v.ambient_dim if isinstance(v, Subspace) else len(v))
                if got != shape(x):
                    raise ValueError("value at %r has shape %r, expected %r"
                                     % (x, got, shape(x)))

    def _read_only(self, *args, **kwargs):
        raise TypeError("a PointFamily is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def map(self, fn: Callable[[str, object], object]) -> "PointFamily":
        """The family ``x -> fn(x, value at x)`` over the same points."""
        return PointFamily(tuple(self), {x: fn(x, v) for x, v in self.items()})


class ParentMismatch(ValueError):
    pass


class OverlapMismatch(ValueError):
    def __init__(self, alpha: int, beta: int, point: str):
        super().__init__("cover members %d and %d disagree at point %r"
                         % (alpha, beta, point))
        self.alpha = alpha
        self.beta = beta
        self.point = point


@record(frozen=True)
class FreeModuleSheaf:
    """The free module sheaf of a fixed rank over the functional coefficients."""

    space: FiniteSpace
    field: Field
    rank: int

    def stalk_dim(self, x: str) -> int:
        return self.rank


@record
class Section:
    """Point-indexed values over one open set."""

    over: int
    values: Dict[str, tuple]

    def __add__(self, other: "Section") -> "Section":
        if self.over != other.over:
            raise ValueError("sections over different opens")
        return Section(self.over, {x: tuple(a + b for a, b in zip(v, other.values[x]))
                                   for x, v in self.values.items()})

    def scale(self, c) -> "Section":
        return Section(self.over, {x: tuple(c * a for a in v)
                                   for x, v in self.values.items()})

    def is_zero(self) -> bool:
        return all(not a for v in self.values.values() for a in v)


def make_section(module, u: int, values: Dict[str, Sequence]) -> Section:
    """Validated section constructor for any stalked module."""
    return Section(u, PointFamily(module.space.member_points(u),
                                  {x: tuple(v) for x, v in values.items()},
                                  module.stalk_dim))


def restrict_section(space: FiniteSpace, s: Section, v: int) -> Section:
    target = space.opens[v]
    if not target <= {x for x in s.values}:
        raise ValueError("restriction target is not inside the section's open")
    return Section(v, {x: s.values[x] for x in space.member_points(v)})


def glue(space: FiniteSpace, cover: Cover, locals_: Sequence[Section]) -> Section:
    """The unique section over the cover target restricting to each local piece."""
    if len(locals_) != len(cover.members):
        raise ValueError("one local section per cover member required")
    member_sets = [space.opens[m] for m in cover.members]
    union = frozenset().union(*member_sets) if member_sets else frozenset()
    if union != space.opens[cover.target]:
        raise ValueError("cover members do not cover the target")
    for a in range(len(locals_)):
        for b in range(a + 1, len(locals_)):
            for x in space.points:
                if x in member_sets[a] and x in member_sets[b]:
                    if locals_[a].values[x] != locals_[b].values[x]:
                        raise OverlapMismatch(a, b, x)
    values: Dict[str, tuple] = {}
    for x in space.member_points(cover.target):
        for piece, mset in zip(locals_, member_sets):
            if x in mset:
                values[x] = piece.values[x]
                break
    return Section(cover.target, values)


# ---------------------------------------------------------------------------
# stalkwise sub-sheaves

class SubmoduleSheaf:
    """One subspace per point; sections over U hit the subspace at each point."""

    def __init__(self, parent, stalks: Dict[str, Subspace]):
        self.parent = parent
        self.stalks = PointFamily(parent.space.points, stalks, parent.stalk_dim)

    def __repr__(self):
        pts = self.space.points
        return "SubmoduleSheaf(ambient_dims=%r, stalk_dims=%r)" % (
            [self.parent.stalk_dim(x) for x in pts], [self.stalk_dim(x) for x in pts])

    @property
    def space(self) -> FiniteSpace:
        return self.parent.space

    @property
    def field(self) -> Field:
        return self.parent.field

    def stalk_dim(self, x: str) -> int:
        return self.stalks[x].dim

    def contains_section(self, s: Section) -> bool:
        return all(self.stalks[x].contains(v) for x, v in s.values.items())

    def __eq__(self, other):
        return (isinstance(other, SubmoduleSheaf) and self.parent == other.parent
                and self.stalks == other.stalks)

    def __le__(self, other: "SubmoduleSheaf") -> bool:
        return all(stalk.is_subspace_of(other.stalks[x])
                   for x, stalk in self.stalks.items())


def full_submodule(e: FreeModuleSheaf) -> SubmoduleSheaf:
    return SubmoduleSheaf(e, {x: Subspace.full(e.field, e.rank)
                              for x in e.space.points})


def zero_submodule(e: FreeModuleSheaf) -> SubmoduleSheaf:
    return SubmoduleSheaf(e, {x: Subspace.zero(e.field, e.rank)
                              for x in e.space.points})


def sections_basis(f: SubmoduleSheaf, u: int) -> List[Section]:
    """Basis of the sections over ``u``: stalk bases placed point by point."""
    pts = f.space.member_points(u)
    out = []
    for x in pts:
        for row in f.stalks[x].basis:
            values = {y: zero_vector(f.field, f.parent.stalk_dim(y)) for y in pts}
            values[x] = row
            out.append(Section(u, values))
    return out


def _fold_stalks(fs: Sequence[SubmoduleSheaf], op) -> SubmoduleSheaf:
    """Combine sub-sheaves of one parent stalk by stalk, left to right."""
    if not fs:
        raise ValueError("need at least one sub-sheaf")
    parent = fs[0].parent
    if any(f.parent != parent for f in fs[1:]):
        raise ParentMismatch("sub-sheaves of different parents")
    return SubmoduleSheaf(parent, fs[0].stalks.map(
        lambda x, first: reduce(op, (f.stalks[x] for f in fs[1:]), first)))


def sum_submodules(fs: Sequence[SubmoduleSheaf]) -> SubmoduleSheaf:
    return _fold_stalks(fs, subspace_sum)


def intersect_submodules(fs: Sequence[SubmoduleSheaf]) -> SubmoduleSheaf:
    return _fold_stalks(fs, subspace_intersection)


# ---------------------------------------------------------------------------
# morphisms (pointwise matrix families acting on sections)

@record
class MorphismSheaf:
    """Pointwise matrices between stalked modules; commutes with restriction.

    The matrix at ``x`` is ``target.stalk_dim(x) x source.stalk_dim(x)``.
    """

    source: object
    target: object
    mats: Dict[str, Matrix]

    def __post_init__(self):
        self.mats = PointFamily(
            self.source.space.points, self.mats,
            lambda x: (self.target.stalk_dim(x), self.source.stalk_dim(x)))

    @classmethod
    def identity_on(cls, module) -> "MorphismSheaf":
        mats = {x: Matrix.identity(module.field, module.stalk_dim(x))
                for x in module.space.points}
        return cls(module, module, mats)

    def apply(self, s: Section) -> Section:
        return Section(s.over, {x: self.mats[x].mat_vec(v)
                                for x, v in s.values.items()})

    def compose(self, first: "MorphismSheaf") -> "MorphismSheaf":
        """self after first."""
        mats = {x: self.mats[x] @ first.mats[x] for x in self.mats}
        return MorphismSheaf(first.source, self.target, mats)

    def __add__(self, other: "MorphismSheaf") -> "MorphismSheaf":
        return MorphismSheaf(self.source, self.target,
                             {x: self.mats[x] + other.mats[x] for x in self.mats})

    def transpose(self) -> "MorphismSheaf":
        """Precomposition on row functionals; pointwise the matrix transpose."""
        return MorphismSheaf(self.target, self.source,
                             {x: m.transpose() for x, m in self.mats.items()})

    def inverse(self) -> "MorphismSheaf":
        mats = {}
        for x, m in self.mats.items():
            mi = inverse(m)
            if mi is None:
                raise ValueError("morphism is not invertible at point %r" % x)
            mats[x] = mi
        return MorphismSheaf(self.target, self.source, mats)


class PairingSheaf:
    """A bilinear morphism of two stalked modules into the coefficients."""

    def __init__(self, left, right, gram: Dict[str, Matrix]):
        if left.space != right.space:
            raise ParentMismatch("pairing sides live on different spaces")
        self.left = left
        self.right = right
        self.gram = PointFamily(
            left.space.points, gram,
            lambda x: (left.stalk_dim(x), right.stalk_dim(x)))

    @property
    def space(self) -> FiniteSpace:
        return self.left.space

    @property
    def field(self) -> Field:
        return self.left.field

    def evaluate(self, s: Section, t: Section) -> Dict[str, object]:
        """The scalar section x -> s(x)^T gram t(x) over the common open."""
        if s.over != t.over:
            raise ValueError("sections live over different opens")
        return {x: dot(self.gram[x].vec_mat(v), t.values[x], self.field)
                for x, v in s.values.items()}

    def swapped(self) -> "PairingSheaf":
        return PairingSheaf(self.right, self.left,
                            self.gram.map(lambda x, g: g.transpose()))


class TwoFormSheaf(PairingSheaf):
    """A pairing of a free module sheaf with itself whose gram matrices,
    the coefficients of the form, are alternating at every point."""

    def __init__(self, module: FreeModuleSheaf, coeff: Dict[str, Matrix]):
        super().__init__(module, module, coeff)
        for x, a in self.gram.items():
            if not a.is_skew():
                raise ValueError("coefficients at %r are not alternating" % x)
        self.module = module

    @property
    def coeff(self) -> PointFamily:
        return self.gram


# ---------------------------------------------------------------------------
# explicitly presented presheaves and the completeness checker

class ExplicitPresheaf:
    """A finite presheaf presentation: a dimension per open, a matrix per pair.

    ``restrictions[(u, v)]`` is the matrix of the restriction map from
    sections over ``u`` to sections over ``v``, for every open ``v``
    contained in ``u``.
    """

    def __init__(self, space: FiniteSpace, field: Field,
                 dims: Sequence[int],
                 restrictions: Dict[Tuple[int, int], Matrix]):
        if len(dims) != len(space.opens):
            raise ValueError("need one dimension per open set")
        self.space = space
        self.field = field
        self.dims = tuple(dims)
        self.restrictions = dict(restrictions)
        for u in range(len(space.opens)):
            for v in range(len(space.opens)):
                if space.opens[v] <= space.opens[u]:
                    m = self.restrictions.get((u, v))
                    if m is None:
                        raise ValueError("missing restriction (%d, %d)" % (u, v))
                    if (m.rows, m.cols) != (self.dims[v], self.dims[u]):
                        raise ValueError("restriction (%d, %d) has shape %dx%d, "
                                         "expected %dx%d" % (u, v, m.rows, m.cols,
                                                             self.dims[v], self.dims[u]))
        for u in range(len(space.opens)):
            if self.restrictions[(u, u)].entries != \
                    Matrix.identity(field, self.dims[u]).entries:
                raise ValueError("restriction (%d, %d) is not the identity" % (u, u))

    def functoriality_failures(self) -> List[Tuple[int, int, int]]:
        """Chains w <= v <= u where composing restrictions disagrees."""
        bad = []
        n = len(self.space.opens)
        for u in range(n):
            for v in range(n):
                if not self.space.opens[v] <= self.space.opens[u]:
                    continue
                for w in range(n):
                    if not self.space.opens[w] <= self.space.opens[v]:
                        continue
                    lhs = self.restrictions[(v, w)] @ self.restrictions[(u, v)]
                    if lhs.entries != self.restrictions[(u, w)].entries:
                        bad.append((u, v, w))
        return bad


def sections_presheaf(f: SubmoduleSheaf) -> ExplicitPresheaf:
    """Concrete presentation of the sections of a stalkwise sub-sheaf.

    The basis over each open is the point-by-point stalk basis, so the
    restriction matrices are plain coordinate selections: each one's rows
    are rows of the identity over the larger open, built once per open.
    """
    space = f.space
    field = f.field
    slots = [[(x, i) for x in space.member_points(u)
              for i in range(f.stalks[x].dim)]
             for u in range(len(space.opens))]
    dims = [len(s) for s in slots]
    restrictions = {}
    for u, slots_u in enumerate(slots):
        eye = dict(zip(slots_u, Matrix.identity(field, dims[u]).entries))
        for v, slots_v in enumerate(slots):
            if space.opens[v] <= space.opens[u]:
                restrictions[(u, v)] = Matrix.from_rows(
                    field, [eye[slot] for slot in slots_v], cols=dims[u])
    return ExplicitPresheaf(space, field, dims, restrictions)


def constant_presheaf(space: FiniteSpace, field: Field, dim: int) -> ExplicitPresheaf:
    """Same module over every open, identity restrictions; not a sheaf in general."""
    eye = Matrix.identity(field, dim)
    n = len(space.opens)
    restrictions = {(u, v): eye for u in range(n) for v in range(n)
                    if space.opens[v] <= space.opens[u]}
    return ExplicitPresheaf(space, field, [dim] * n, restrictions)


@record
class Counterexample:
    open: int
    cover: Cover
    section: Optional[tuple] = None          # S1: a nonzero section restricting to zero
    family: Optional[tuple] = None           # S2: compatible member sections with no gluing

    def __str__(self):
        kind = "S1" if self.section is not None else "S2"
        return "%s fails over open %d with cover %r" % (kind, self.open,
                                                        list(self.cover.members))


@record
class CompletenessReport:
    s1: Optional[Counterexample]
    s2: Optional[Counterexample]

    @property
    def ok(self) -> bool:
        return self.s1 is None and self.s2 is None


def _offsets(p: ExplicitPresheaf, cover: Cover) -> List[int]:
    """Where each member's block starts in (+)_m F(U_m), plus the total."""
    return list(accumulate((p.dims[m] for m in cover.members), initial=0))


def _pieces(p: ExplicitPresheaf, cover: Cover, vec: Sequence) -> Dict[int, tuple]:
    """A vector of (+)_m F(U_m) cut into its pieces, keyed by member."""
    at = _offsets(p, cover)
    return {m: tuple(vec[a:b]) for m, a, b in zip(cover.members, at, at[1:])}


def _on_basis(families: Subspace, vectors, what: str) -> Matrix:
    """The coordinates of ``vectors`` on the families' basis, as columns."""
    m = coordinates(families, vectors)
    if m is None:
        raise ValueError("%s are not compatible families; presheaf is not "
                         "functorial" % what)
    return m


def _germs(p: ExplicitPresheaf, u: int) -> Tuple[Cover, Matrix, Subspace]:
    """Sections over ``u`` against their germs on the minimal cover of ``u``.

    Returns the cover of ``u`` by its largest minimal opens U_m, the joint
    restriction F(U) -> (+)_m F(U_m) with one row block per member, and the
    compatible germ families: the (s_m) that agree on the largest minimal
    opens of each pairwise overlap.
    """
    space = p.space
    field = p.field
    cover = space.minimal_cover(u)
    members = cover.members
    at = _offsets(p, cover)
    joint = Matrix.from_rows(field, [row for m in members
                                     for row in p.restrictions[(u, m)].entries],
                             cols=p.dims[u])
    constraints = []
    for a, b in combinations(range(len(members)), 2):
        overlap = space.index_of(space.opens[members[a]] & space.opens[members[b]])
        for z in space.minimal_cover(overlap).members:
            ra = p.restrictions[(members[a], z)]
            rb = p.restrictions[(members[b], z)]
            for k in range(p.dims[z]):
                row = [field.zero] * at[-1]
                row[at[a]:at[a + 1]] = ra.entries[k]
                row[at[b]:at[b + 1]] = [-c for c in rb.entries[k]]
                constraints.append(tuple(row))
    families = kernel_basis(Matrix.from_rows(field, constraints, cols=at[-1]))
    return cover, joint, families


def check_completeness(p: ExplicitPresheaf) -> CompletenessReport:
    """Check both sheaf axioms on every open against its minimal cover.

    Over U, the columns of the joint restriction to the largest minimal
    opens span the image of the sections among the germ families.  S1
    needs full rank (witness: a kernel vector), S2 needs every compatible
    family inside (witness: the first one outside); witnesses are built
    only on failure.  As that cover refines every cover of U, ``ok`` and
    ``s1`` (with its open) on a functorial presheaf are those of a check
    over all covers, and so is ``s2`` while S1 holds everywhere; where S1
    fails, ``s2`` is a compatible germ family with no section.

    An open whose minimal cover is itself alone is skipped: every cover of
    it contains it, and its self-restriction is the identity, so both
    axioms hold there.
    """
    s1: Optional[Counterexample] = None
    s2: Optional[Counterexample] = None
    for u in range(len(p.space.opens)):
        if p.space.minimal_cover(u).members == (u,):
            continue
        cover, joint, families = _germs(p, u)
        image = Subspace.span(p.field, families.ambient_dim,
                              joint.transpose().entries)
        if s1 is None and image.dim < joint.cols:
            s1 = Counterexample(u, cover, section=kernel_basis(joint).basis[0])
        if s2 is None and not families.is_subspace_of(image):
            fam = next(f for f in families.basis if not image.contains(f))
            s2 = Counterexample(u, cover,
                                family=tuple(_pieces(p, cover, fam).values()))
        if s1 is not None and s2 is not None:
            break
    return CompletenessReport(s1, s2)


def sheafify(p: ExplicitPresheaf):
    """The generated sheaf: compatible germ families on minimal covers.

    A section over U is a compatible germ family on the largest minimal
    opens of U, and restriction to V reads each member of V's cover off a
    member of U's cover that contains it.  Returns the sheafified
    presheaf and the unit (a section to its germs), one matrix per open;
    when the input is already complete every unit matrix is invertible.
    """
    space = p.space
    field = p.field
    germs = [_germs(p, u) for u in range(len(space.opens))]
    dims = [families.dim for _, _, families in germs]

    restrictions = {}
    for u, (cover_u, _, families_u) in enumerate(germs):
        for v, (cover_v, _, families_v) in enumerate(germs):
            if not space.opens[v] <= space.opens[u]:
                continue
            via = {mv: next(m for m in cover_u.members
                            if space.opens[mv] <= space.opens[m])
                   for mv in cover_v.members}
            restricted = []
            for b in families_u.basis:
                pieces = _pieces(p, cover_u, b)
                restricted.append([c for mv, m in via.items()
                                   for c in p.restrictions[(m, mv)].mat_vec(pieces[m])])
            restrictions[(u, v)] = _on_basis(families_v, restricted,
                                             "restricted germ families")
    unit = {u: _on_basis(families, joint.transpose().entries, "section germs")
            for u, (_, joint, families) in enumerate(germs)}
    return ExplicitPresheaf(space, field, dims, restrictions), unit


# ---------------------------------------------------------------------------
# quotients

@record
class QuotientSheaf:
    """Stalkwise quotient with a deterministic complement of representatives.

    ``within`` bounds the numerator (default: the whole parent), so the same
    type covers both the plain quotient of the free sheaf and quotients of a
    sub-sheaf by a smaller one.  Quotient coordinates live on the canonical
    complement basis at each point.
    """

    parent: FreeModuleSheaf
    by: SubmoduleSheaf
    within: Optional[SubmoduleSheaf]
    complements: Dict[str, Subspace]
    proj: Dict[str, Matrix]         # ambient coordinates -> quotient coordinates

    def __post_init__(self):
        pts, n = self.space.points, self.parent.rank
        self.complements = PointFamily(pts, self.complements, lambda x: n)
        self.proj = PointFamily(pts, self.proj, lambda x: (self.stalk_dim(x), n))

    @property
    def space(self) -> FiniteSpace:
        return self.parent.space

    @property
    def field(self) -> Field:
        return self.parent.field

    def stalk_dim(self, x: str) -> int:
        return self.complements[x].dim


def quotient(f: SubmoduleSheaf,
             within: Optional[SubmoduleSheaf] = None) -> QuotientSheaf:
    """Quotient (within / f), by default of the whole parent of ``f``, with
    its complements and projection read off the canonical bases."""
    e = f.parent
    if within is not None and within.parent != e:
        raise ParentMismatch("enclosing sub-sheaf lives in another sheaf")
    complements: Dict[str, Subspace] = {}
    proj: Dict[str, Matrix] = {}
    for x in e.space.points:
        by_stalk = f.stalks[x]
        try:
            cplt = echelon_complement(
                by_stalk, None if within is None else within.stalks[x])
        except AmbientMismatch:  # both stalks live in e: not inside
            raise ParentMismatch("stalk at %r is not inside the enclosing "
                                 "stalk" % x) from None
        q = echelon_projection(by_stalk, cplt)
        if not (by_stalk.matrix() @ q.transpose()).is_zero():
            raise RuntimeError("projection does not kill the denominator at %r" % x)
        if cplt.matrix() @ q.transpose() != Matrix.identity(e.field, cplt.dim):
            raise RuntimeError("projection is not the identity on the complement at %r" % x)
        complements[x] = cplt
        proj[x] = q
    return QuotientSheaf(e, f, within, complements, proj)
