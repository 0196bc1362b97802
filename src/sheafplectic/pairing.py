"""Bilinear pairings of module sheaves: duality, annihilators, transposes.

A pairing is a family of gram matrices, one per point, evaluating two
sections pointwise.  The gram family is a ``PointFamily``, checked like
every per-point map: each point exactly once, each matrix with the shape of
the two stalks there.  An alternating 2-form is a pairing too, so one
evaluation serves pairings, forms and reduced forms alike.  Duals of free
finite-rank sheaves are identified with the sheaves themselves (functionals
are row vectors on the standard basis), which turns every "within an
isomorphism" statement into an equality of canonical data that tests can
compare directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exactalg import (
    Field,
    Matrix,
    Subspace,
    coordinates_in,
    dot,
    inverse,
    kernel_basis,
    orthogonal_complement,
    rank_of,
    zero_vector,
)
from .sheaf import (
    FreeModuleSheaf,
    MorphismSheaf,
    ParentMismatch,
    PointFamily,
    QuotientSheaf,
    Section,
    SubmoduleSheaf,
    quotient,
)
from .space import FiniteSpace


class Degenerate(ValueError):
    pass


class NotInvariant(ValueError):
    def __init__(self, point: str, vector: tuple):
        super().__init__("stalk at %r is not invariant, witness %r" % (point, vector))
        self.point = point
        self.vector = vector


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


def canonical_pairing(e: FreeModuleSheaf) -> PairingSheaf:
    """Evaluation of row functionals on vectors: identity gram everywhere."""
    eye = Matrix.identity(e.field, e.rank)
    return PairingSheaf(e, e, {x: eye for x in e.space.points})


@dataclass
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
    check = is_nondegenerate(p)
    if not check:
        raise Degenerate("pairing is degenerate at %r" % (check.point,))
    mats = {}
    for x in p.space.points:
        g = p.gram[x]
        ginv = inverse(g)
        if ginv is None:
            raise Degenerate("gram not invertible at %r" % x)
        mats[x] = ginv @ s.mats[x].transpose() @ g
    return MorphismSheaf(p.right, p.right, mats)


@dataclass
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
    if g.parent != p.left:
        raise ParentMismatch("sub-sheaf does not live in the left side")
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


@dataclass
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
    for x in p.space.points:
        for v in g.stalks[x].basis:
            if not g.stalks[x].contains(s.mats[x].mat_vec(v)):
                raise NotInvariant(x, v)
    t = transpose_endomorphism(p, s)
    ip = induced_pairing(p, g)
    for x in p.space.points:
        for w in ip.perp.stalks[x].basis:
            if not ip.perp.stalks[x].contains(t.mats[x].mat_vec(w)):
                raise RuntimeError("annihilator failed to be invariant at %r" % x)
    restricted_mats = {}
    induced_mats = {}
    for x in p.space.points:
        cols = []
        for v in g.stalks[x].basis:
            coords = coordinates_in(g.stalks[x], s.mats[x].mat_vec(v))
            cols.append(coords)
        k = g.stalks[x].dim
        restricted_mats[x] = Matrix.from_rows(
            p.field, [tuple(col[i] for col in cols) for i in range(k)], cols=k)
        q = ip.quotient.proj[x]
        c = ip.quotient.complements[x].matrix()
        induced_mats[x] = q @ t.mats[x] @ c.transpose()
        if (induced_mats[x] @ q).entries != (q @ t.mats[x]).entries:
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
        if rank_of(q) != quot.stalk_dim(x):
            raise RuntimeError("quotient dual map is not injective at %r" % x)
        mats[x] = q.transpose()
    return MorphismSheaf(quot, e, mats)


# ---------------------------------------------------------------------------
# exactness of the two hom functors against a probe

@dataclass
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


@dataclass
class HomExactnessReport:
    opens: List[OpenHomReport]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.opens)


def _family_map(field: Field, layout_dom, layout_cod, image_of_unit):
    """Matrix of a pointwise-linear map between spaces of matrix families.

    ``layout_*`` lists (point, rows, cols); ``image_of_unit(x, i, j)`` is
    the image family component at the same point, as a matrix.
    """
    dom_total = sum(r * c for _, r, c in layout_dom)
    cod_total = sum(r * c for _, r, c in layout_cod)
    cod_offset = {}
    off = 0
    for x, r, c in layout_cod:
        cod_offset[x] = (off, r, c)
        off += r * c
    columns = []
    for x, r, c in layout_dom:
        for i in range(r):
            for j in range(c):
                vec = [field.zero] * cod_total
                img = image_of_unit(x, i, j)
                ox, ir, ic = cod_offset[x]
                for a in range(ir):
                    for b in range(ic):
                        vec[ox + a * ic + b] = img.entries[a][b]
                columns.append(tuple(vec))
    rows = [tuple(col[k] for col in columns) for k in range(cod_total)]
    return Matrix.from_rows(field, rows, cols=dom_total)


def _unit_matrix(field: Field, r: int, c: int, i: int, j: int) -> Matrix:
    rows = [[field.zero] * c for _ in range(r)]
    rows[i][j] = field.one
    return Matrix.from_rows(field, [tuple(row) for row in rows], cols=c)


def check_hom_exactness(f: SubmoduleSheaf,
                        probe: FreeModuleSheaf) -> HomExactnessReport:
    """Apply both hom functors to 0 -> F -> E -> E/F -> 0 over every open.

    Morphism families over an open split point by point, so the hom modules
    are flattened products of matrix spaces; exactness is checked as
    injectivity plus image-equals-kernel of canonical subspaces.
    """
    e = f.parent
    if probe.space != e.space or probe.field != e.field:
        raise ParentMismatch("probe lives on a different space or field")
    field = e.field
    quot, proj = quotient(e, f)
    reports = []
    for u in range(len(e.space.opens)):
        pts = e.space.member_points(u)
        pr = probe.rank
        lay_f = [(x, f.stalks[x].dim, pr) for x in pts]
        lay_e = [(x, e.rank, pr) for x in pts]
        lay_q = [(x, quot.stalk_dim(x), pr) for x in pts]

        inc = _family_map(
            field, lay_f, lay_e,
            lambda x, i, j: f.stalks[x].matrix().transpose()
            @ _unit_matrix(field, f.stalks[x].dim, pr, i, j))
        push = _family_map(
            field, lay_e, lay_q,
            lambda x, i, j: proj.mats[x] @ _unit_matrix(field, e.rank, pr, i, j))
        into_inj = kernel_basis(inc).dim == 0
        image = Subspace.span(field, inc.rows,
                              [inc.column(j) for j in range(inc.cols)])
        into_exact = image == kernel_basis(push)
        d_into = (inc.cols, inc.rows, push.rows)

        lay_fc = [(x, pr, f.stalks[x].dim) for x in pts]
        lay_ec = [(x, pr, e.rank) for x in pts]
        lay_qc = [(x, pr, quot.stalk_dim(x)) for x in pts]
        pull_q = _family_map(
            field, lay_qc, lay_ec,
            lambda x, i, j: _unit_matrix(field, pr, quot.stalk_dim(x), i, j)
            @ proj.mats[x])
        pull_i = _family_map(
            field, lay_ec, lay_fc,
            lambda x, i, j: _unit_matrix(field, pr, e.rank, i, j)
            @ f.stalks[x].matrix().transpose())
        from_inj = kernel_basis(pull_q).dim == 0
        image2 = Subspace.span(field, pull_q.rows,
                               [pull_q.column(j) for j in range(pull_q.cols)])
        from_exact = image2 == kernel_basis(pull_i)
        d_from = (pull_q.cols, pull_q.rows, pull_i.rows)

        reports.append(OpenHomReport(u, d_into, d_from,
                                     into_inj, into_exact, from_inj, from_exact))
    return HomExactnessReport(reports)
