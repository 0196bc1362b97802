"""Module sheaves on finite spaces: free sheaves, their stalkwise sub-sheaves
and quotients, morphisms, pairings and 2-forms.

The coefficient sheaf is functional: a scalar section over an open set is a
map from its points into the field, so a section of the rank-n free sheaf
is a point-indexed family of n-vectors and restriction is plain function
restriction.  Sub-sheaves are stalkwise: one subspace per point, with the
sections over U being exactly the families that hit the subspace at every
point of U, and ordered stalkwise too: ``f <= g`` when each stalk of ``f``
lies in that of ``g``; their parent may be a quotient.  A quotient reads
its complements and its projection off canonical bases, point by point.

Every per-point map (stalks, matrices of morphisms, pairings and forms,
quotient data, section values) is a ``PointFamily``, and all of them are
checked one way: each point of the space appears exactly once, and each
value has the shape its point needs.  Pairings and 2-forms are such data
too, so their types live here; their algebra is in ``pairing`` and
``symplectic``.  These are the types every command parses a manifest into;
the sheaf axioms, which only the completeness suite checks, are in
``sheaf``.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ._records import record
from .exactalg import (
    AmbientMismatch,
    Field,
    Matrix,
    Subspace,
    dot,
    echelon_complement,
    echelon_projection,
    inverse,
    subspace_intersection,
    subspace_sum,
    zero_vector,
)
from .space import FiniteSpace


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
