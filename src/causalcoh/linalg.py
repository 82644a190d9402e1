"""Exact linear algebra over the rational field.

Scalars are :class:`fractions.Fraction` values, which are always stored
gcd-reduced with a positive denominator (zero is ``0/1``).  :class:`MatrixQ`
is a dense, immutable container of them.  All elimination is one sparse
step, :func:`_reduce_into`, which reduces a vector (dict index -> exact
value) against an echelon basis and pivots on the lowest index:
:meth:`MatrixQ.rank` eliminates the rows with it; :meth:`MatrixQ.rref`,
``kernel_basis``, ``solve`` and ``inverse`` back-substitute the resulting
basis into the unique reduced row echelon form; :func:`independent_columns`
eliminates the columns of the large sparse coboundaries of triangulations;
and :func:`sparse_rank` ranks sparse integer systems.  Identical inputs
yield bit-identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

Scalar = Fraction

_F0 = Fraction(0)
_F1 = Fraction(1)


def q(x) -> Fraction:
    """Coerce an int or Fraction to an exact rational scalar."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MatrixQ:
    """Dense matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_m")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._m = tuple(tuple(_F0 for _ in range(cols)) for _ in range(rows))
        else:
            if len(entries) != rows:
                raise ValueError(f"expected {rows} rows, got {len(entries)}")
            grid = []
            for row in entries:
                if len(row) != cols:
                    raise ValueError(f"expected {cols} columns, got {len(row)}")
                grid.append(tuple(q(x) for x in row))
            self._m = tuple(grid)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(n, n, [[_F1 if i == j else _F0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixQ":
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "MatrixQ":
        ncols = len(cols)
        if ncols == 0:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            return cls(rows, 0)
        nrows = len(cols[0])
        return cls(nrows, ncols, [[cols[j][i] for j in range(ncols)] for i in range(nrows)])

    @classmethod
    def column_vector(cls, values: Sequence) -> "MatrixQ":
        return cls(len(values), 1, [[v] for v in values])

    # -- basic access ---------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._m[i][j]

    def row(self, i: int) -> tuple:
        return self._m[i]

    def column(self, j: int) -> tuple:
        return tuple(self._m[i][j] for i in range(self.rows))

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._m == other._m

    __hash__ = None  # mutable-adjacent container; not meant for hashing

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._m)
        return f"MatrixQ({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return all(not x for row in self._m for x in row)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        self._check_same_shape(other)
        return MatrixQ(self.rows, self.cols,
                       [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self._m, other._m)])

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        self._check_same_shape(other)
        return MatrixQ(self.rows, self.cols,
                       [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self._m, other._m)])

    def __neg__(self) -> "MatrixQ":
        return MatrixQ(self.rows, self.cols, [[-a for a in row] for row in self._m])

    def scale(self, c) -> "MatrixQ":
        c = q(c)
        return MatrixQ(self.rows, self.cols, [[c * a for a in row] for row in self._m])

    def __mul__(self, other: "MatrixQ") -> "MatrixQ":
        if not isinstance(other, MatrixQ):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} * {other.shape()}")
        om = other._m
        out = []
        for i in range(self.rows):
            srow = self._m[i]
            orow = [_F0] * other.cols
            for k in range(self.cols):
                a = srow[k]
                if a:
                    brow = om[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            orow[j] += a * b
            out.append(orow)
        return MatrixQ(self.rows, other.cols, out)

    def transpose(self) -> "MatrixQ":
        return MatrixQ(self.cols, self.rows,
                       [[self._m[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def hstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        return MatrixQ(self.rows, self.cols + other.cols,
                       [ra + rb for ra, rb in zip(self._m, other._m)])

    def _check_same_shape(self, other: "MatrixQ") -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["MatrixQ", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        rows = _rref_rows(map(_sparse, self._m))
        grid = [[_F0] * self.cols for _ in range(self.rows)]
        for out, (_, row) in zip(grid, rows):
            for j, x in row.items():
                out[j] = x
        return MatrixQ(self.rows, self.cols, grid), tuple(p for p, _ in rows)

    def rank(self) -> int:
        """Rank over the rationals: the size of an echelon basis of the rows."""
        basis: dict[int, dict] = {}
        return sum(_reduce_into(basis, row) for row in map(_sparse, self._m))

    def kernel_basis(self) -> "MatrixQ":
        """Columns spanning the kernel, in the canonical rref convention.

        For each free column f the basis vector has 1 at f and
        ``-R[i][f]`` at the i-th pivot column.
        """
        rows = _rref_rows(map(_sparse, self._m))
        pivots = {p for p, _ in rows}
        cols = {}
        for f in range(self.cols):
            if f not in pivots:
                cols[f] = [_F0] * self.cols
                cols[f][f] = _F1
        for p, row in rows:
            for f, x in row.items():
                if f != p:
                    cols[f][p] = -x
        return MatrixQ.from_columns(list(cols.values()), rows=self.cols)

    def solve(self, rhs: "MatrixQ") -> "MatrixQ | None":
        """A particular solution X of ``self * X = rhs`` (free vars = 0).

        Returns None when the system is inconsistent.  The choice of
        particular solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n = self.cols
        rows = _rref_rows(_sparse(a + b) for a, b in zip(self._m, rhs._m))
        if rows and rows[-1][0] >= n:
            return None  # a pivot in the right-hand side
        out = [[_F0] * rhs.cols for _ in range(n)]
        for p, row in rows:
            for j, x in row.items():
                if j >= n:
                    out[p][j - n] = x
        return MatrixQ(n, rhs.cols, out)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "MatrixQ":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        inv = self.solve(MatrixQ.identity(self.rows))
        if inv is None or (self * inv) != MatrixQ.identity(self.rows):
            raise ValueError("matrix is singular")
        return inv


def rank(m: MatrixQ) -> int:
    """Rank of an exact rational matrix."""
    return m.rank()


def kernel_basis(m: MatrixQ) -> MatrixQ:
    """Matrix whose columns form the canonical basis of ker(m)."""
    return m.kernel_basis()


def _reduce_into(basis: dict[int, dict], v: dict) -> bool:
    """One sparse elimination step: reduce ``v`` against ``basis`` in place.

    ``basis`` maps each pivot index to its vector (1 at the pivot, zero at
    every other pivot below it); ``v`` maps indices to nonzero exact values
    (ints or Fractions).  Returns True, after adding the normalized residual
    to ``basis``, when ``v`` does not lie in the span of ``basis``.
    """
    heap = list(v)
    heapify(heap)
    while heap:
        i = heappop(heap)
        c = v.get(i)
        if c is None:
            continue
        b = basis.get(i)
        if b is None:
            # i leads the residual: every index below it is eliminated
            if c == 1:
                basis[i] = v
            elif c == -1:
                basis[i] = {j: -x for j, x in v.items()}
            else:
                basis[i] = {j: Fraction(x) / c for j, x in v.items()}
            return True
        for j, x in b.items():
            y = v.get(j, 0) - c * x
            if y:
                if j not in v:
                    heappush(heap, j)
                v[j] = y
            else:
                del v[j]
    return False


def _rref_rows(vectors: Iterable[dict]) -> list[tuple[int, dict]]:
    """The nonzero rows of the reduced row echelon form of ``vectors``.

    Returns (pivot, row) pairs in ascending pivot order; each row is 1 at
    its pivot and 0 at every other pivot.  The vectors are reduced into an
    echelon basis by :func:`_reduce_into`, then back-substituted over the
    pivots in descending order, so every later pivot row is already reduced
    when it is subtracted.  The reduced row echelon form is unique, so the
    rows do not depend on the order of elimination.
    """
    basis: dict[int, dict] = {}
    for v in vectors:
        _reduce_into(basis, v)
    pivots = sorted(basis)
    for p in reversed(pivots):
        row = basis[p]
        # a reduced pivot row is 0 at every other pivot, so subtracting it
        # clears one pivot column of ``row`` and leaves the others alone
        for k in [k for k in row if k != p and k in basis]:
            c = row[k]
            for j, x in basis[k].items():
                y = row.get(j, 0) - c * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return [(p, basis[p]) for p in pivots]


def _sparse(col: tuple) -> dict:
    # integral entries are reduced as ints, which Fraction arithmetic
    # accepts exactly and which are much cheaper
    return {i: x.numerator if x.denominator == 1 else x for i, x in enumerate(col) if x}


def independent_columns(span: MatrixQ, candidates: MatrixQ) -> tuple[int, ...]:
    """Indices of the columns of ``candidates`` that enlarge the running span.

    One elimination pass over sparse columns (dict index -> exact value): the
    columns of ``span`` are reduced into an echelon basis first, then the
    candidates in order.  A candidate whose residual is nonzero is kept and
    its residual joins the basis, so candidate j is kept exactly when
    ``rank([span | kept | c_j]) > rank([span | kept])``.
    """
    if span.rows != candidates.rows:
        raise ValueError("row count mismatch")
    basis: dict[int, dict] = {}  # pivot -> residual, 1 at the pivot
    for col in span.columns():
        _reduce_into(basis, _sparse(col))
    return tuple(j for j, col in enumerate(candidates.columns())
                 if _reduce_into(basis, _sparse(col)))


def sparse_rank(vectors: Iterable[dict]) -> int:
    """Rank of sparse vectors (dict index -> nonzero int or Fraction).

    The same elimination step as :func:`independent_columns`; the input
    dicts are copied, not consumed.
    """
    basis: dict[int, dict] = {}
    return sum(_reduce_into(basis, dict(v)) for v in vectors)
