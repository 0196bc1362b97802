"""Exact scalar fields and dense linear algebra over them.

All arithmetic is exact: rationals are arbitrary-precision fractions, prime
field residues are reduced integers.  Subspaces carry a canonical reduced
echelon basis, so equality of subspaces is a plain structural comparison.
Everything here is immutable and pure; pivoting is deterministic (first
nonzero column, first nonzero row), so repeated runs produce bit-identical
results.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union


class AmbientMismatch(ValueError):
    """Operands live in different ambient spaces or different fields."""


_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FpElement:
    """Residue in the field with ``p`` elements, kept in ``[0, p)``."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

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


@dataclass(frozen=True)
class RationalField:
    """The ordered field of rationals; literals are ``p/q`` or ``p``."""

    name = "Q"
    ordered = True

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def parse(self, text: str) -> Fraction:
        if not isinstance(text, str) or not _RATIONAL_RE.match(text):
            raise ValueError("bad rational literal: %r" % (text,))
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError("zero denominator in rational literal: %r" % (text,))

    def abs(self, a: Fraction) -> Fraction:
        return abs(a)

    def format(self, a: Fraction) -> str:
        return str(a)


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime; literals are plain integers."""

    p: int
    name = "Fp"
    ordered = False

    def __post_init__(self):
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
# vectors (plain tuples of scalars)

def zero_vector(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def dot(u: Sequence[Scalar], v: Sequence[Scalar], field: Field) -> Scalar:
    acc = field.zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def add_vectors(u: Sequence[Scalar], v: Sequence[Scalar]) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# matrices

@dataclass(frozen=True)
class Matrix:
    """Dense matrix over an exact field; entries are row tuples."""

    field: Field
    rows: int
    cols: int
    entries: tuple

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
        cols = other.transpose().entries
        rows = tuple(tuple(dot(r, c, self.field) for c in cols) for r in self.entries)
        return Matrix(self.field, self.rows, other.cols, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return Matrix(self.field, self.rows, self.cols,
                      tuple(add_vectors(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.rows, self.cols,
                      tuple(tuple(-a for a in r) for r in self.entries))

    def mat_vec(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        return tuple(dot(r, v, self.field) for r in self.entries)

    def vec_mat(self, v: Sequence[Scalar]) -> tuple:
        if len(v) != self.rows:
            raise ValueError("vector length %d != rows %d" % (len(v), self.rows))
        return tuple(dot(v, self.column(j), self.field) for j in range(self.cols))

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
    nonzero entry scanning columns left to right, rows top to bottom.
    """
    work = [list(r) for r in rows_data]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        work[r] = [a / pv for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = [tuple(row) for row in work[:r]]
    return reduced, pivots


@dataclass(frozen=True)
class Subspace:
    """Row span with a canonical reduced-echelon basis.

    Two subspaces are equal exactly when their canonical bases coincide.
    """

    field: Field
    ambient_dim: int
    basis: tuple  # tuple of row tuples, canonical RREF, no zero rows

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
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector length %d != ambient %d"
                                  % (len(vec), self.ambient_dim))
        reduced, _ = rref(self.field, list(self.basis) + [tuple(vec)],
                          self.ambient_dim)
        return len(reduced) == self.dim

    def is_subspace_of(self, other: "Subspace") -> bool:
        _require_same_ambient(self, other)
        return all(other.contains(v) for v in self.basis)


def _require_same_ambient(a: Subspace, b: Subspace) -> None:
    if a.ambient_dim != b.ambient_dim or a.field != b.field:
        raise AmbientMismatch("ambient %r/%r vs %r/%r"
                              % (a.field, a.ambient_dim, b.field, b.ambient_dim))


def rank_of(m: Matrix) -> int:
    """Row rank by exact Gaussian elimination."""
    _, pivots = rref(m.field, m.entries, m.cols)
    return len(pivots)


def kernel_basis(m: Matrix) -> Subspace:
    """Canonical basis of ``{v : m v = 0}``; dim = cols - rank."""
    reduced, pivots = rref(m.field, m.entries, m.cols)
    field = m.field
    free = [j for j in range(m.cols) if j not in pivots]
    vectors = []
    for f in free:
        v = [field.zero] * m.cols
        v[f] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][f]
        vectors.append(tuple(v))
    return Subspace.span(field, m.cols, vectors)


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


def coordinates_in(sub: Subspace, vec: Sequence[Scalar]) -> Optional[tuple]:
    """Coefficients of ``vec`` on the canonical basis, or None if outside."""
    return solve(sub.matrix().transpose(), vec)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    """Smallest subspace containing both operands."""
    _require_same_ambient(a, b)
    return Subspace.span(a.field, a.ambient_dim, a.basis + b.basis)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Largest common subspace, via the kernel of stacked constraints.

    Membership in a row span is one linear condition per vector of the
    span's kernel, so the intersection is the kernel of both constraint
    blocks stacked.
    """
    _require_same_ambient(a, b)
    constraints_a = kernel_basis(a.matrix())
    constraints_b = kernel_basis(b.matrix())
    stacked = Matrix.from_rows(a.field, constraints_a.basis + constraints_b.basis,
                               cols=a.ambient_dim)
    return kernel_basis(stacked)


def orthogonal_complement(s: Subspace, gram: Matrix) -> Subspace:
    """``{w : v^T gram w = 0 for every basis vector v of s}``."""
    if gram.rows != s.ambient_dim or gram.cols != s.ambient_dim:
        raise AmbientMismatch("gram is %dx%d, ambient is %d"
                              % (gram.rows, gram.cols, s.ambient_dim))
    constraints = s.matrix() @ gram
    return kernel_basis(constraints)


def echelon_complement(sub: Subspace, within: Optional[Subspace] = None) -> Subspace:
    """Deterministic complement of ``sub`` inside ``within`` (default: all).

    In coordinates on ``within``'s canonical basis, the complement is spanned
    by the basis vectors sitting at the non-pivot columns of ``sub``.
    """
    if within is None:
        within = Subspace.full(sub.field, sub.ambient_dim)
    _require_same_ambient(sub, within)
    coord_rows = []
    for v in sub.basis:
        coords = coordinates_in(within, v)
        if coords is None:
            raise AmbientMismatch("subspace is not inside the enclosing space")
        coord_rows.append(coords)
    _, pivots = rref(sub.field, coord_rows, within.dim)
    chosen = [within.basis[j] for j in range(within.dim) if j not in pivots]
    return Subspace(sub.field, sub.ambient_dim, tuple(chosen))
