"""Definition-level brute force for cross-checking the main code paths.

Nothing here reuses elimination: ranks come from counting span members or
expanding minors, annihilators from filtering every section against the
defining identity, gluing checks from enumerating all families.  The
symplectic constructions are read off the same enumerations: the form's
orthogonal is the annihilator under the form, the four classes and the
reduced dimension are counted on enumerated members, and a Darboux
decomposition is summed entry by entry.  That independence is the point;
keep it that way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

from sheafplectic.exactalg import Field, Matrix, PrimeField, Subspace
from sheafplectic.sheaf import ExplicitPresheaf, PairingSheaf, Section, SubmoduleSheaf


class BudgetExceeded(ValueError):
    pass


@dataclass(frozen=True)
class EnumerationBudget:
    max_field: int = 3
    max_rank: int = 3
    max_points: int = 3

    def check_field(self, field: Field) -> PrimeField:
        if not isinstance(field, PrimeField) or field.p > self.max_field:
            raise BudgetExceeded("enumeration needs a prime field of size <= %d"
                                 % self.max_field)
        return field

    def check_size(self, rank: int, points: int) -> None:
        if rank > self.max_rank:
            raise BudgetExceeded("rank %d exceeds budget %d" % (rank, self.max_rank))
        if points > self.max_points:
            raise BudgetExceeded("point count %d exceeds budget %d"
                                 % (points, self.max_points))


DEFAULT_BUDGET = EnumerationBudget()


def _all_vectors(field: PrimeField, length: int):
    return itertools.product(field.elements(), repeat=length)


def _span_members(field: PrimeField, sub: Subspace) -> List[tuple]:
    """Every vector of the span, as the set of linear combinations."""
    members = []
    seen = set()
    for coeffs in _all_vectors(field, sub.dim):
        vec = [field.zero] * sub.ambient_dim
        for c, row in zip(coeffs, sub.basis):
            if c:
                vec = [a + c * b for a, b in zip(vec, row)]
        t = tuple(vec)
        if t not in seen:
            seen.add(t)
            members.append(t)
    return members


def enum_submodule_sections(f: SubmoduleSheaf, u: int,
                            budget: EnumerationBudget = DEFAULT_BUDGET) -> List[Section]:
    """All sections over ``u`` whose value at each point lies in the stalk span."""
    field = budget.check_field(f.field)
    pts = f.space.member_points(u)
    budget.check_size(f.parent.rank, len(pts))
    per_point = [_span_members(field, f.stalks[x]) for x in pts]
    out = []
    for combo in itertools.product(*per_point):
        out.append(Section(u, dict(zip(pts, combo))))
    return out


def _bilinear_value(gram_rows, left, right, field):
    """s(x)^T G t(x) as a double sum over the gram entries."""
    acc = field.zero
    for a, row in zip(left, gram_rows):
        for g, b in zip(row, right):
            acc = acc + a * g * b
    return acc


def enum_annihilator(p: PairingSheaf, g: SubmoduleSheaf, u: int,
                     budget: EnumerationBudget = DEFAULT_BUDGET) -> List[Section]:
    """Filter every right section against the defining identity.

    Keeps the sections pairing to zero with all enumerated sections of the
    left sub-sheaf; the result spans the annihilator's sections over ``u``.
    """
    field = budget.check_field(p.field)
    pts = p.space.member_points(u)
    budget.check_size(max(p.right.stalk_dim(x) for x in pts) if pts else 0,
                      len(pts))
    left_sections = enum_submodule_sections(g, u, budget)
    out = []
    per_point = [_all_vectors(field, p.right.stalk_dim(x)) for x in pts]
    for combo in itertools.product(*[list(v) for v in per_point]):
        t = Section(u, dict(zip(pts, combo)))
        if all(not _bilinear_value(p.gram[x].entries, s.values[x], t.values[x],
                                   field)
               for s in left_sections for x in pts):
            out.append(t)
    return out


def enum_rank(m: Matrix, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Rank over a prime field by counting the row span: |span| = p^rank."""
    field = budget.check_field(m.field)
    budget.check_size(max(m.rows, m.cols), 1)
    seen = set()
    for coeffs in _all_vectors(field, m.rows):
        vec = [field.zero] * m.cols
        for c, row in zip(coeffs, m.entries):
            if c:
                vec = [a + c * b for a, b in zip(vec, row)]
        seen.add(tuple(vec))
    count = len(seen)
    rank = 0
    while field.p ** rank < count:
        rank += 1
    return rank


@dataclass
class GluingReport:
    s1_ok: bool
    s2_ok: bool
    s1_witness: Optional[tuple] = None   # (cover, section_a, section_b)
    s2_witness: Optional[tuple] = None   # (cover, family)
    per_cover: Tuple[tuple, ...] = ()    # (cover, compatible_count, glued_count)

    @property
    def ok(self) -> bool:
        return self.s1_ok and self.s2_ok


def enum_gluing_check(p: ExplicitPresheaf, u: int,
                      budget: EnumerationBudget = DEFAULT_BUDGET) -> GluingReport:
    """Exhaustive check of both sheaf axioms over one open.

    Every family over every irredundant cover is enumerated; gluings are
    found by scanning all sections over the target, never by solving.
    """
    field = budget.check_field(p.field)
    if max(p.dims) > budget.max_rank * budget.max_points:
        raise BudgetExceeded("presheaf dimension %d exceeds budget" % max(p.dims))
    space = p.space
    s1_ok, s2_ok = True, True
    s1_witness = None
    s2_witness = None
    per_cover = []
    all_sections = [tuple(v) for v in _all_vectors(field, p.dims[u])]
    for cover in space.irredundant_covers(u):
        members = cover.members
        restricted = {}
        for s in all_sections:
            key = tuple(tuple(p.restrictions[(u, m)].mat_vec(s)) for m in members)
            if key in restricted and restricted[key] != s:
                if s1_ok:
                    s1_ok = False
                    s1_witness = (cover, restricted[key], s)
            else:
                restricted[key] = s
        families = itertools.product(
            *[[tuple(v) for v in _all_vectors(field, p.dims[m])] for m in members])
        compatible_count = 0
        glued_count = 0
        for family in families:
            compatible = True
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    overlap = space.opens[members[a]] & space.opens[members[b]]
                    if not overlap:
                        continue
                    w = space.index_of(overlap)
                    ra = p.restrictions[(members[a], w)].mat_vec(family[a])
                    rb = p.restrictions[(members[b], w)].mat_vec(family[b])
                    if tuple(ra) != tuple(rb):
                        compatible = False
                        break
                if not compatible:
                    break
            if not compatible:
                continue
            compatible_count += 1
            if tuple(family) in restricted:
                glued_count += 1
            elif s2_ok:
                s2_ok = False
                s2_witness = (cover, family)
        per_cover.append((cover, compatible_count, glued_count))
    return GluingReport(s1_ok, s2_ok, s1_witness, s2_witness, tuple(per_cover))


def _det_laplace(m: Matrix, rows: Tuple[int, ...], cols: Tuple[int, ...]):
    field = m.field
    if not rows:
        return field.one
    i = rows[0]
    rest = rows[1:]
    acc = field.zero
    sign = field.one
    for k, j in enumerate(cols):
        a = m.entries[i][j]
        if a:
            sub_cols = cols[:k] + cols[k + 1:]
            acc = acc + sign * a * _det_laplace(m, rest, sub_cols)
        sign = -sign
    return acc


def recompute_rank_via_minors(m: Matrix,
                              budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    """Largest size of a nonzero minor, by determinant expansion only."""
    if m.rows * m.cols > 36:
        raise BudgetExceeded("matrix size %dx%d exceeds the minor budget"
                             % (m.rows, m.cols))
    top = min(m.rows, m.cols)
    for k in range(top, 0, -1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                if _det_laplace(m, rows, cols):
                    return k
    return 0


# ---------------------------------------------------------------------------
# symplectic constructions, from their definitions


@dataclass(frozen=True)
class SymplecticFacts:
    """A sub-sheaf F and its orthogonal F^w over one open, by enumeration."""

    perp: frozenset                 # the sections of F^w, as value tuples
    isotropic: bool                 # F inside F^w
    coisotropic: bool               # F^w inside F
    symplectic: bool                # F and F^w meet only in zero
    lagrangian: bool                # F equal to F^w
    reduced_dims: dict              # point -> log_p |F_x| / |F_x meet F^w_x|


def _values(s: Section, pts) -> tuple:
    return tuple(s.values[x] for x in pts)


def enum_symplectic(form: PairingSheaf, f: SubmoduleSheaf, u: int,
                    budget: EnumerationBudget = DEFAULT_BUDGET) -> SymplecticFacts:
    """F^w over ``u`` as every section pairing to zero under the form with
    all of F's (``enum_annihilator`` with the form as the pairing), and the
    classes and reduced dimensions counted on the enumerated members."""
    field = budget.check_field(form.field)
    pts = f.space.member_points(u)
    members = {_values(s, pts) for s in enum_submodule_sections(f, u, budget)}
    perp = frozenset(_values(t, pts) for t in enum_annihilator(form, f, u, budget))
    meet = members & perp
    dims = {}
    for i, x in enumerate(pts):
        ratio = len({v[i] for v in members}) // len({v[i] for v in meet})
        dims[x] = next(d for d in itertools.count() if field.p ** d >= ratio)
    return SymplecticFacts(perp, members <= perp, perp <= members, len(meet) == 1,
                           members == perp, dims)


def wedge_sum_matches(form: PairingSheaf, pairs, u: int) -> bool:
    """Whether the form's coefficients at every point of ``u`` are the field
    sums, entry by entry, of a_k b_l - b_k a_l over the covector pairs
    ``(a, b)``."""
    field = form.field
    for y in form.space.member_points(u):
        gram = form.gram[y].entries
        for k, row in enumerate(gram):
            for l, entry in enumerate(row):
                acc = field.zero
                for a, b in pairs:
                    a_y, b_y = a.values[y], b.values[y]
                    acc = acc + a_y[k] * b_y[l] - b_y[k] * a_y[l]
                if acc != entry:
                    return False
    return True
