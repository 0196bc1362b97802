"""The sheaf axioms: gluing sections, checking explicitly presented
presheaves for completeness, and sheafification.

An explicitly presented presheaf is read through its germs: over each open
U, the sections against the compatible families on U's largest minimal
opens.  The sheaf axioms and sheafification are both built on that one
construction, so neither enumerates covers.

The module sheaves whose sections are glued here, and whose sections
presheaves are checked, are data kept in ``modsheaf``.  Every command
loads that module; only the completeness suite loads this one.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Dict, List, Optional, Sequence, Tuple

from ._records import record
from .exactalg import Field, Matrix, Subspace, coordinates, kernel_basis
from .modsheaf import PointFamily, Section, SubmoduleSheaf
from .space import Cover, FiniteSpace


class OverlapMismatch(ValueError):
    def __init__(self, alpha: int, beta: int, point: str):
        super().__init__("cover members %d and %d disagree at point %r"
                         % (alpha, beta, point))
        self.alpha = alpha
        self.beta = beta
        self.point = point


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
