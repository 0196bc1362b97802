"""Exact scalar fields and dense linear algebra over them.

All arithmetic is exact: rationals are arbitrary-precision fractions, prime
field residues are reduced integers.  Subspaces carry a canonical reduced
echelon basis, so equality of subspaces is a plain structural comparison.
Everything here is immutable and pure; pivoting is deterministic (first
nonzero column, first nonzero row), so repeated runs produce bit-identical
results.

``Fraction`` and ``FpElement`` are the scalars at every boundary, but the
kernels work on plain Python ints, and this module is the only one that
knows how a scalar is represented:

- ``rref`` over Q scales each row to integers by the lcm of its
  denominators and runs fraction-free Gauss-Jordan elimination (row
  operations ``pv*row_i - f*row_r``, each new row divided by the gcd of its
  entries), dividing each pivot row by its pivot once, at the end.  Over
  F_p it works on residues, inverts the pivot with ``pow(pv, p-2, p)`` and
  reduces once per row operation.
- ``Matrix.__matmul__`` over Q scales the rows of the left factor and the
  columns of the right one to integers, so each entry is one integer dot
  product and one ``Fraction``; over F_p each entry is a residue sum.
- ``AlternatingResidual``, the rank-two update of the Darboux
  decomposition, keeps an alternating matrix as integers over one common
  denominator and computes only its upper triangle.

Each kernel converts its input with a type check, so an entry that is not
the field's scalar (an ``int`` or ``float`` over Q, a residue of another
prime) raises ``TypeError``.  The reduced echelon form is unique, so the
integer paths return exactly what field arithmetic would.

Each subspace question takes at most one elimination, never one per
vector: ``coordinates`` (and with it ``contains``, ``is_subspace_of`` and
``echelon_complement``) reads coordinates off the pivot columns of a
canonical basis and checks them on ints, an intersection is one Zassenhaus
elimination, a kernel is one elimination, and a yes/no question is read
off a rank already at hand.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ._records import record


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces or different fields."""


_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")

# the shared rational zero and one (a ``Fraction`` is immutable)
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_new_object = object.__new__
_set_attribute = object.__setattr__


@record(frozen=True)
class FpElement:
    """Residue in the field with ``p`` elements, kept in ``[0, p)``."""

    __slots__ = ("value", "p")
    value: int
    p: int

    def __init__(self, value: int, p: int):
        _set_attribute(self, "value", value % p)
        _set_attribute(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is FpElement:
            return (self.value, self.p) == (other.value, other.p)
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __reduce__(self):
        return FpElement, (self.value, self.p)

    def _same(self, other: "FpElement") -> None:
        if not isinstance(other, FpElement) or other.p != self.p:
            raise TypeError("mixed-field arithmetic: %r vs %r" % (self, other))

    def __add__(self, other):
        self._same(other)
        return FpElement(self.value + other.value, self.p)

    def __sub__(self, other):
        self._same(other)
        return FpElement(self.value - other.value, self.p)

    def __mul__(self, other):
        self._same(other)
        return FpElement(self.value * other.value, self.p)

    def __truediv__(self, other):
        self._same(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.value, self.p)

    def __bool__(self):
        return self.value != 0

    def __str__(self):
        return str(self.value)


Scalar = Union[Fraction, FpElement]


@record(frozen=True)
class RationalField:
    """The ordered field of rationals; literals are ``p/q`` or ``p``."""

    name = "Q"
    ordered = True

    @property
    def zero(self) -> Fraction:
        return _Q_ZERO

    @property
    def one(self) -> Fraction:
        return _Q_ONE

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        match = _RATIONAL_RE.match(text) if isinstance(text, str) else None
        if match is None:
            raise ValueError("bad rational literal: %r" % (text,))
        num, den = match.groups()
        if den is not None and not int(den):
            raise ValueError("zero denominator in rational literal: %r" % (text,))
        return Fraction(int(num), int(den or 1))

    def abs(self, a: Fraction) -> Fraction:
        return abs(a)

    def format(self, a: Fraction) -> str:
        return str(a)


@record(frozen=True)
class PrimeField:
    """The field of integers modulo a prime; literals are plain integers."""

    p: int
    name = "Fp"
    ordered = False

    def __post_init__(self):
        if isinstance(self.p, bool) or not isinstance(self.p, int):
            raise TypeError("modulus %r is not an int" % (self.p,))
        if not _is_prime(self.p):
            raise ValueError("modulus %r is not prime" % (self.p,))

    @property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def from_int(self, k: int) -> FpElement:
        return FpElement(k, self.p)

    def parse(self, value) -> FpElement:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("bad F_%d literal: %r" % (self.p, value))
        return FpElement(value, self.p)

    def abs(self, a: FpElement):
        raise TypeError("F_%d carries no order, |.| undefined" % self.p)

    def format(self, a: FpElement) -> int:
        return a.value

    def elements(self):
        return [FpElement(k, self.p) for k in range(self.p)]


QQ = RationalField()

Field = Union[RationalField, PrimeField]


# ---------------------------------------------------------------------------
# scalars as plain ints: the one place that reads their representation

def _ints(field: Field, row: Sequence) -> Tuple[List[int], int]:
    """``(ints, den)`` with ``row == ints / den`` in the field: over Q
    ``den`` is the lcm of the row's denominators, over F_p it is one.  A
    row with an entry that is not a scalar of the field raises
    ``TypeError``."""
    if isinstance(field, PrimeField):
        p = field.p
        ints = [a.value for a in row if isinstance(a, FpElement) and a.p == p]
        if len(ints) == len(row):
            return ints, 1
    else:
        dens = [a.denominator for a in row if isinstance(a, Fraction)]
        if len(dens) == len(row):
            den = math.lcm(*dens)
            if den == 1:
                return [a.numerator for a in row], 1
            return [a.numerator * (den // d) for a, d in zip(row, dens)], den
    raise TypeError("not all entries of %r are scalars of %r"
                    % (tuple(row), field))


def _residue(value: int, p: int) -> FpElement:
    # an FpElement from a value already in [0, p), without re-reducing it
    a = _new_object(FpElement)
    _set_attribute(a, "value", value)
    _set_attribute(a, "p", p)
    return a


def _scalars(field: Field, ints: Iterable[int], den: int) -> tuple:
    """The field scalars ``ints / den``; ``den`` is nonzero in the field."""
    if isinstance(field, PrimeField):
        p = field.p
        inv = pow(den, p - 2, p)
        return tuple([_residue(a * inv % p, p) for a in ints])
    if den == 1:
        return tuple([Fraction(a) if a else _Q_ZERO for a in ints])
    return tuple([Fraction(a, den) if a else _Q_ZERO for a in ints])


def _products(field: Field, rows: Iterable[Sequence],
              cols: Iterable[Sequence]) -> List[tuple]:
    """The dot products of each row with each column, row by row: over Q
    each is one integer dot product of the rows and columns scaled to
    integers and one ``Fraction``, over F_p one residue sum."""
    left = [_ints(field, r) for r in rows]
    right = [_ints(field, c) for c in cols]
    if isinstance(field, PrimeField):
        return [_scalars(field, [sum(map(mul, r, c)) for c, _ in right], 1)
                for r, _ in left]
    out = []
    for r, dr in left:
        sums = [sum(map(mul, r, c)) for c, _ in right]
        out.append(tuple([Fraction(s, dr * dc) if s else _Q_ZERO
                          for s, (_, dc) in zip(sums, right)]))
    return out


# ---------------------------------------------------------------------------
# vectors (plain tuples of scalars)

def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def dot(u: Sequence[Scalar], v: Sequence[Scalar], field: Field) -> Scalar:
    return _products(field, [u], [v])[0][0]


# ---------------------------------------------------------------------------
# matrices

@record(frozen=True)
class Matrix:
    """Dense matrix over an exact field; entries are row tuples."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __init__(self, field: Field, rows: int, cols: int, entries: tuple):
        _set_attribute(self, "field", field)
        _set_attribute(self, "rows", rows)
        _set_attribute(self, "cols", cols)
        _set_attribute(self, "entries", entries)

    @classmethod
    def from_rows(cls, field: Field, rows_data: Iterable[Sequence[Scalar]],
                  cols: Optional[int] = None) -> "Matrix":
        rows_t = tuple(tuple(row) for row in rows_data)
        if rows_t:
            width = len(rows_t[0])
            if any(len(r) != width for r in rows_t):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("declared cols %d != row width %d" % (cols, width))
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(field, len(rows_t), cols, rows_t)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        rows = tuple(tuple(field.one if i == j else field.zero for j in range(n))
                     for i in range(n))
        return cls(field, n, n, rows)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, tuple((field.zero,) * cols for _ in range(rows)))

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(zip(*self.entries)) if self.entries else
                      tuple(() for _ in range(self.cols)) if self.cols else ())

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        rows = _products(self.field, self.entries, other.transpose().entries)
        return Matrix(self.field, self.rows, other.cols, tuple(rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(a + b for a, b in zip(r, s))
                            for r, s in zip(self.entries, other.entries)))

    def mat_vec(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        return tuple(r[0] for r in _products(self.field, self.entries, [v]))

    def vec_mat(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.rows:
            raise ValueError("vector length %d != rows %d" % (len(v), self.rows))
        return _products(self.field, [v], self.transpose().entries)[0]

    def is_zero(self) -> bool:
        return all(not a for r in self.entries for a in r)

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            if self.entries[i][i]:
                return False
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True


# ---------------------------------------------------------------------------
# reduced echelon form and the operations built on it

def rref(field: Field, rows_data: Iterable[Sequence[Scalar]], cols: int):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_cols)`` with zero rows dropped, pivots
    normalised to one and pivot columns cleared.  Pivot choice is the first
    nonzero entry scanning columns left to right, rows top to bottom.  The
    elimination runs on ints: fraction-free over Q, on residues over F_p.
    Rows below the pivot row, zero before its column, update from it on.
    """
    work = [_ints(field, r)[0] for r in rows_data]
    prime = isinstance(field, PrimeField)
    p = field.p if prime else 0
    pivots = []
    r = 0
    for c in range(cols):
        for pivot_row in range(r, len(work)):
            if work[pivot_row][c]:
                break
        else:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        pv = prow[c]
        if prime and pv != 1:
            inv = pow(pv, p - 2, p)
            prow = work[r] = [a * inv % p for a in prow]
        for i, row in enumerate(work):
            f = row[c]
            if i == r or not f:
                continue
            s = c if i > r else 0
            if prime:
                row = [(a - f * b) % p for a, b in zip(row[s:], prow[s:])]
            else:
                row = [pv * a - f * b for a, b in zip(row[s:], prow[s:])]
                g = math.gcd(*row)
                row = [a // g for a in row] if g > 1 else row
            work[i] = [0] * s + row
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = [_scalars(field, row, 1 if prime else row[c])
               for row, c in zip(work, pivots)]
    return reduced, pivots


@record(frozen=True)
class Subspace:
    """Row span with a canonical reduced-echelon basis.

    Two subspaces are equal exactly when their canonical bases coincide.
    """

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of row tuples, canonical RREF, no zero rows

    def __init__(self, field: Field, ambient_dim: int, basis: tuple):
        _set_attribute(self, "field", field)
        _set_attribute(self, "ambient_dim", ambient_dim)
        _set_attribute(self, "basis", basis)

    def __eq__(self, other):
        if other.__class__ is Subspace:
            return ((self.field, self.ambient_dim, self.basis)
                    == (other.field, other.ambient_dim, other.basis))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis))

    @classmethod
    def span(cls, field: Field, ambient_dim: int,
             rows: Iterable[Sequence[Scalar]]) -> "Subspace":
        rows_t = [tuple(r) for r in rows]
        for r in rows_t:
            if len(r) != ambient_dim:
                raise AmbientMismatch("row length %d != ambient %d"
                                      % (len(r), ambient_dim))
        reduced, _ = rref(field, rows_t, ambient_dim)
        return cls(field, ambient_dim, tuple(reduced))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def matrix(self) -> Matrix:
        return Matrix.from_rows(self.field, self.basis, cols=self.ambient_dim)

    def contains(self, vec: Sequence[Scalar]) -> bool:
        return coordinates(self, [vec]) is not None

    def is_subspace_of(self, other: "Subspace") -> bool:
        _require_same_ambient(self, other)
        return coordinates(other, self.basis) is not None


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("ambient %r/%r vs %r/%r"
                              % (a.field, a.ambient_dim, b.field, b.ambient_dim))


def rank_of(m: Matrix) -> int:
    """Row rank by exact Gaussian elimination."""
    _, pivots = rref(m.field, m.entries, m.cols)
    return len(pivots)


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of ``{v : m v = 0}``; dim = cols - rank.

    One elimination, on the columns in reverse order: each free column then
    depends only on pivot columns to its right, so ``e_f`` minus that
    combination leads at ``f`` and is zero at every other free column, and
    these vectors are already the canonical reduced basis.
    """
    field, n = m.field, m.cols
    reduced, pivots = rref(field, [r[::-1] for r in m.entries], n)
    pivots = [n - 1 - c for c in pivots]
    vectors = []
    for f in range(n):
        if f in pivots:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[n - 1 - f]
        vectors.append(tuple(v))
    return Subspace(field, n, tuple(vectors))


def solve(m: Matrix, rhs: Sequence[Scalar]) -> Optional[tuple]:
    """One solution of ``m x = rhs`` with free variables set to zero.

    Returns ``None`` when ``rhs`` is outside the column space.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length %d != rows %d" % (len(rhs), m.rows))
    field = m.field
    augmented = [tuple(r) + (b,) for r, b in zip(m.entries, rhs)]
    reduced, pivots = rref(field, augmented, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [field.zero] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Optional[Matrix]:
    if m.rows != m.cols:
        return None
    n = m.rows
    eye = Matrix.identity(m.field, n)
    augmented = [r + e for r, e in zip(m.entries, eye.entries)]
    reduced, pivots = rref(m.field, augmented, 2 * n)
    if list(pivots) != list(range(n)):
        return None
    return Matrix.from_rows(m.field, [row[n:] for row in reduced], cols=n)


def coordinates(sub: Subspace, vectors: Sequence[Sequence[Scalar]]) -> Optional[Matrix]:
    """The coordinates of ``vectors`` on the canonical basis of ``sub``, one
    column per vector, or None when a vector lies outside ``sub``.  They are
    a vector's entries at the basis' pivot columns, and it lies in ``sub``
    when subtracting their combination, on ints, leaves zero.
    """
    field, n = sub.field, sub.ambient_dim
    p = field.p if isinstance(field, PrimeField) else 0
    pivots = [_pivot(row) for row in sub.basis]
    basis = [_ints(field, row) for row in sub.basis]
    den = math.lcm(*[d for _, d in basis])
    cols = []
    for v in vectors:
        if len(v) != n:
            raise AmbientMismatch("vector length %d != ambient %d" % (len(v), n))
        ints, dv = _ints(field, v)
        rest = [den * a for a in ints]
        for j, (row, d) in zip(pivots, basis):
            c = ints[j] * (den // d)
            if c:
                rest = [a - c * b for a, b in zip(rest, row)]
        if any(a % p for a in rest) if p else any(rest):
            return None
        cols.append(_scalars(field, [ints[j] for j in pivots], dv))
    return Matrix.from_rows(field, cols, cols=sub.dim).transpose()


def _pivot(row: Sequence[Scalar]) -> int:
    return next(j for j, a in enumerate(row) if a)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    _require_same_ambient(a, b)
    return Subspace.span(a.field, a.ambient_dim, a.basis + b.basis)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Largest common subspace, by Zassenhaus' algorithm: in the reduced
    echelon form of the rows ``(u | u)``, u in ``a``, and ``(v | 0)``, v in
    ``b``, the rows ``(0 | w)`` have w in both, and their right halves are
    already reduced, so they are the canonical basis of the intersection.
    """
    _require_same_ambient(a, b)
    n = a.ambient_dim
    zeros = (a.field.zero,) * n
    reduced, pivots = rref(a.field, [u + u for u in a.basis] +
                           [v + zeros for v in b.basis], 2 * n)
    return Subspace(a.field, n, tuple(row[n:] for row, c in zip(reduced, pivots)
                                      if c >= n))


def orthogonal_complement(s: Subspace, gram: Matrix) -> Subspace:
    """``{w : v^T gram w = 0 for every basis vector v of s}``."""
    if gram.rows != s.ambient_dim or gram.cols != s.ambient_dim:
        raise AmbientMismatch("gram is %dx%d, ambient is %d"
                              % (gram.rows, gram.cols, s.ambient_dim))
    constraints = s.matrix() @ gram
    return kernel_basis(constraints)


def echelon_complement(sub: Subspace, within: Optional[Subspace] = None) -> Subspace:
    """Deterministic complement of ``sub`` inside ``within`` (default: all):
    the canonical basis vectors of ``within`` off the pivots of ``sub``,
    which are the non-pivot columns of sub's (reduced) coordinates.
    """
    if within is None:
        within = Subspace.full(sub.field, sub.ambient_dim)
    elif not sub.is_subspace_of(within):
        raise AmbientMismatch("subspace is not inside the enclosing space")
    taken = {_pivot(v) for v in sub.basis}
    return Subspace(sub.field, sub.ambient_dim,
                    tuple(w for w in within.basis if _pivot(w) not in taken))


# ---------------------------------------------------------------------------
# the rank-two update of the Darboux decomposition

class AlternatingResidual:
    """An alternating matrix ``R`` worn down by rank-two steps
    ``R <- R - (R_i / c) ^ v``, where ``(a ^ b)[k][l] = a_k b_l - b_k a_l``.

    ``R`` is held as ``num / den`` with ``num`` a list of int rows: over Q
    with ``den > 0`` and the gcd of ``num`` and ``den`` stripped after each
    step, over F_p modulo p.  A step computes the upper triangle and
    mirrors it, since ``R`` stays alternating.  Each step returns its pair
    ``(R_i / c, v)`` as field scalars, or None when ``c`` vanishes.
    """

    def __init__(self, m: Matrix):
        self.field = m.field
        rows = [_ints(m.field, r) for r in m.entries]
        self.den = math.lcm(*[d for _, d in rows])
        self.num = [[a * (self.den // d) for a in r] for r, d in rows]

    def matrix(self) -> Matrix:
        return Matrix.from_rows(self.field, [_scalars(self.field, r, self.den)
                                             for r in self.num],
                                cols=len(self.num))

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def row_is_zero(self, i: int) -> bool:
        return not any(self.num[i])

    def first_nonzero_entry(self) -> Optional[Tuple[int, int]]:
        """The first nonzero entry above the diagonal, row by row."""
        for i, row in enumerate(self.num):
            for j in range(i + 1, len(row)):
                if row[j]:
                    return (i, j)
        return None

    def pivot(self, i: int, j: int,
              abs_normalize: bool = False) -> Optional[tuple]:
        """The step with ``c = R_ij`` (``|R_ij|`` when ``abs_normalize``)
        and ``v = R_j``."""
        c = self.num[i][j]
        if not c:
            return None
        if abs_normalize:
            if isinstance(self.field, PrimeField):
                raise TypeError("F_%d carries no order, |.| undefined"
                                % self.field.p)
            c = abs(c)
        s2 = _scalars(self.field, self.num[j], self.den)
        return self._step(i, c, self.num[j], self.den), s2

    def seed(self, i: int, t: Sequence[Scalar]) -> Optional[tuple]:
        """The step with ``v = t``, a row of field scalars, and ``c = -t_i``."""
        v, dv = _ints(self.field, t)
        if not v[i]:
            return None
        return self._step(i, -v[i], v, dv), tuple(t)

    def _step(self, i: int, c: int, v: List[int], dv: int) -> tuple:
        # With R = num/den, v = V/dv and c = C/dv (true of both steps):
        # R_i / c = num_i dv / (den C) and R' = (C num - num_i ^ V) / (C den).
        field, num = self.field, self.num
        a = num[i]
        s1 = _scalars(field, [x * dv for x in a], self.den * c)
        upper = [[c * m - (ak * vl - vk * al)
                  for m, al, vl in zip(row[k + 1:], a[k + 1:], v[k + 1:])]
                 for k, (row, ak, vk) in enumerate(zip(num, a, v))]
        den = self.den * c
        if isinstance(field, PrimeField):
            p = field.p
            upper = [[x % p for x in row] for row in upper]
            den %= p
        else:
            if den < 0:
                den = -den
                upper = [[-x for x in row] for row in upper]
            g = math.gcd(den, *chain.from_iterable(upper))
            if g > 1:
                den //= g
                upper = [[x // g for x in row] for row in upper]
        self.den = den
        self.num = [[-upper[l][k - l - 1] for l in range(k)] + [0] + row
                    for k, row in enumerate(upper)]
        return s1
