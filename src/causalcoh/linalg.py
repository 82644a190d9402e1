"""Exact linear algebra over the rational field.

:class:`MatrixQ` is an immutable sparse matrix.  Each row maps a column
index to a nonzero exact value, stored as an ``int`` when integral and as a
gcd-reduced :class:`fractions.Fraction` otherwise; empty rows and unit rows
are shared read-only mappings.  The public constructors validate and
coerce entries through :func:`q`; results computed inside the package go
through the trusted constructor ``MatrixQ._trusted``.  Every operation
walks only nonzero entries, and entry access returns Fractions.

All elimination is one sparse step, :func:`_reduce_into`, which reduces a
vector (dict index -> exact value) against an echelon basis and pivots on
the lowest index: :func:`_pivots` eliminates copies of given rows with it
and returns the pivot set, which :meth:`MatrixQ.pivots`, :meth:`MatrixQ.rank`
and :func:`sparse_rank` read; :meth:`MatrixQ.rref`, ``kernel_basis``,
``solve`` and ``inverse`` back-substitute the resulting basis into the
unique reduced row echelon form; and :func:`quotient_basis` reads the
cohomology representatives and their coordinates off two such forms.
Identical inputs yield bit-identical outputs.

The elimination is fraction-free (Bareiss 1968): an echelon vector whose
lead is not 1 is an int vector divided by the gcd of its entries, and
reducing against it scales the reduced vector by an int instead of
dividing by the lead, so integer inputs never create a Fraction.  A vector
holding a Fraction is scaled to integers the first time it meets such a
lead.  Vectors with leads +-1, such as the simplicial coboundaries, take
the plain ``v - c * b`` step.  The rref divides each row by its pivot
value once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from heapq import heapify, heappop, heappush
from types import MappingProxyType
from typing import Container, Iterable, Sequence

_F0 = Fraction(0)
_EMPTY = MappingProxyType({})  # every all-zero row


@lru_cache(maxsize=None)
def _unit_row(j: int) -> MappingProxyType:
    # most rows of identities, inclusions and kernel bases are unit rows
    return MappingProxyType({j: 1})


def _shared(row):
    """``row``, or its shared copy when it is empty or a unit row."""
    if len(row) == 1 and row.get(j := next(iter(row))) == 1:
        return _unit_row(j)
    return row or _EMPTY


def q(x):
    """An int or Fraction in stored form: an int when it is integral."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class MatrixQ:
    """Sparse immutable matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows: int, cols: int, entries: Sequence[Sequence] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if entries is not None and len(entries) != rows:
            raise ValueError(f"expected {rows} rows, got {len(entries)}")
        for row in entries or ():
            if len(row) != cols:
                raise ValueError(f"expected {cols} columns, got {len(row)}")
        self.rows, self.cols = rows, cols
        self._r = (_EMPTY,) * rows if entries is None else tuple(
            _shared({j: v for j, v in enumerate(map(q, row)) if v}) for row in entries)

    # -- constructors ---------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, sparse_rows: Iterable) -> "MatrixQ":
        """A matrix of the given rows, unchecked: their values are in stored
        form and nonzero, their indices in range, and nobody mutates them
        afterwards, because matrices share rows."""
        m = object.__new__(cls)
        m.rows, m.cols, m._r = rows, cols, tuple(map(_shared, sparse_rows))
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "MatrixQ":
        """The zero matrix of this shape, one shared instance per shape."""
        return _zeros(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        """The n x n identity matrix, one shared instance per size."""
        return _identity(n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MatrixQ":
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "MatrixQ":
        if rows is None:
            if not cols:
                raise ValueError("rows required for a matrix with no columns")
            rows = len(cols[0])
        return cls(len(cols), rows, cols).transpose()

    @classmethod
    def column_vector(cls, values: Sequence) -> "MatrixQ":
        return cls(len(values), 1, [[v] for v in values])

    # -- basic access ---------------------------------------------------

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        # indexing a range wraps a negative j and rejects one out of range
        return Fraction(self._r[i].get(range(self.cols)[j], 0))

    def row(self, i: int) -> tuple:
        """Row i as a dense tuple of Fractions."""
        row = self._r[i]
        return tuple(Fraction(row[j]) if j in row else _F0 for j in range(self.cols))

    def columns(self) -> list[tuple]:
        """The columns as dense tuples of Fractions."""
        return list(map(self.transpose().row, range(self.cols)))

    def take_rows(self, indices: Iterable[int]) -> "MatrixQ":
        picked = [self._r[i] for i in indices]
        return MatrixQ._trusted(len(picked), self.cols, picked)

    def take_columns(self, indices: Sequence[int]) -> "MatrixQ":
        """The given distinct columns, in the given order."""
        new = {j: k for k, j in enumerate(indices)}
        return MatrixQ._trusted(self.rows, len(new), (
            {new[j]: x for j, x in row.items() if j in new} for row in self._r))

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixQ):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._r == other._r

    __hash__ = None  # mutable-adjacent container; not meant for hashing

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i))) for i in range(self.rows))
        return f"MatrixQ({self.rows}x{self.cols}: [{body}])"

    def is_zero(self) -> bool:
        return not any(self._r)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "MatrixQ") -> "MatrixQ":
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")
        out = []
        for a, b in zip(self._r, other._r):
            acc = dict(a)
            for j, x in b.items():
                acc[j] = acc.get(j, 0) + x
            out.append({j: q(v) for j, v in acc.items() if v})
        return MatrixQ._trusted(self.rows, self.cols, out)

    def __sub__(self, other: "MatrixQ") -> "MatrixQ":
        return self + -other

    def __neg__(self) -> "MatrixQ":
        return self.scale(-1)

    def scale(self, c) -> "MatrixQ":
        c = q(c)
        return MatrixQ._trusted(self.rows, self.cols, (
            {j: q(c * x) for j, x in row.items()} if c else _EMPTY for row in self._r))

    def __mul__(self, other: "MatrixQ") -> "MatrixQ":
        if not isinstance(other, MatrixQ):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape()} * {other.shape()}")
        if not (self.rows and self.cols and other.cols):
            return _zeros(self.rows, other.cols)
        out = []
        for a in self._r:
            acc: dict = {}
            for k, x in a.items():
                for j, y in other._r[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append({j: v if type(v) is int else q(v) for j, v in acc.items() if v})
        return MatrixQ._trusted(self.rows, other.cols, out)

    def transpose(self) -> "MatrixQ":
        return MatrixQ._trusted(self.cols, self.rows, _column_dicts(self))

    def hstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        n = self.cols
        return MatrixQ._trusted(self.rows, n + other.cols, (
            {**a, **{n + j: x for j, x in b.items()}} for a, b in zip(self._r, other._r)))

    def vstack(self, other: "MatrixQ") -> "MatrixQ":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return MatrixQ._trusted(self.rows + other.rows, self.cols, self._r + other._r)

    # -- elimination ----------------------------------------------------

    def _echelon(self) -> list[tuple[int, dict]]:
        # the elimination keeps and mutates its vectors: give it copies
        return _rref_rows(dict(row) for row in self._r if row)

    def rref(self) -> tuple["MatrixQ", tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot columns."""
        rows = self._echelon()
        return (MatrixQ._trusted(self.rows, self.cols, [row for _, row in rows]
                                 + [_EMPTY] * (self.rows - len(rows))),
                tuple(p for p, _ in rows))

    def pivots(self, skip: Container[int] = ()) -> frozenset[int]:
        """Pivot columns of an echelon basis of the rows whose index is not
        in ``skip``; each is the lowest nonzero column of a vector in their
        row space."""
        return frozenset(_pivots(self._r, skip))

    def rank(self) -> int:
        """Rank over the rationals: the size of an echelon basis of the rows."""
        return len(_pivots(self._r))

    def kernel_basis(self) -> "MatrixQ":
        """Columns spanning the kernel, in the canonical rref convention.

        For each free column f the basis vector has 1 at f and
        ``-R[i][f]`` at the i-th pivot column.  So row f of the basis is a
        unit row, and row p of a pivot p is its rref row, negated, at the
        free columns.
        """
        rows = self._echelon()
        pivots = {p for p, _ in rows}
        free = {f: k for k, f in enumerate(f for f in range(self.cols) if f not in pivots)}
        return _kernel_columns(self.cols, rows, free)

    def solve(self, rhs: "MatrixQ") -> "MatrixQ | None":
        """A particular solution X of ``self * X = rhs`` (free vars = 0).

        Returns None when the system is inconsistent.  The choice of
        particular solution is deterministic.
        """
        if rhs.rows != self.rows:
            raise ValueError("rhs row count mismatch")
        n = self.cols
        rows = self.hstack(rhs)._echelon()
        if rows and rows[-1][0] >= n:
            return None  # a pivot in the right-hand side
        out: list = [_EMPTY] * n
        for p, row in rows:
            out[p] = {j - n: x for j, x in row.items() if j >= n}
        return MatrixQ._trusted(n, rhs.cols, out)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "MatrixQ":
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        identity = MatrixQ.identity(self.rows)
        inv = self.solve(identity)
        if inv is None or (self * inv) != identity:
            raise ValueError("matrix is singular")
        return inv


@lru_cache(maxsize=None)
def _zeros(rows: int, cols: int) -> MatrixQ:
    return MatrixQ(rows, cols)


@lru_cache(maxsize=None)
def _identity(n: int) -> MatrixQ:
    if n < 0:
        raise ValueError("matrix dimensions must be non-negative")
    return MatrixQ._trusted(n, n, map(_unit_row, range(n)))


def _column_dicts(m: MatrixQ) -> list[dict]:
    """The columns of ``m`` as new sparse dicts (row index -> value)."""
    cols: list[dict] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m._r):
        for j, x in row.items():
            cols[j][i] = x
    return cols


def _integral(v: dict) -> None:
    """Scale ``v`` in place by the lcm of its denominators: every value
    becomes an int, and the span of ``v`` stays the same."""
    m = lcm(*(x.denominator for x in v.values()))
    for j, x in v.items():
        v[j] = x.numerator * (m // x.denominator)


def _align(v: dict, i: int, lead: int):
    """The multiple c of an int vector b with ``b[i] == lead`` such that
    ``v - c * b`` is 0 at i, after scaling ``v`` in place by the least
    positive int that makes one exist (``lead / gcd(lead, v[i])``).  A
    Fraction at i makes ``v`` integral first."""
    c = v[i]
    if type(c) is not int:
        _integral(v)
        c = v[i]
    g = gcd(lead, c)
    if g != lead:
        s = lead // g
        for j, x in v.items():
            v[j] = x * s
    return c // g


def _primitive(v: dict, i: int) -> dict:
    """``v`` as an int vector divided by the gcd of its entries, signed so
    that its value at the lead index ``i`` is positive."""
    try:
        g = gcd(*v.values())
    except TypeError:  # a Fraction entry
        _integral(v)
        g = gcd(*v.values())
    if v[i] < 0:
        g = -g
    return v if g == 1 else {j: x // g for j, x in v.items()}


def _reduce_into(basis: dict[int, dict], v: dict) -> bool:
    """One sparse elimination step: reduce ``v`` against ``basis`` in place.

    ``basis`` maps each pivot index to its vector, which is zero at every
    other pivot below it and has a positive int lead at the pivot: 1, or
    the lead of an int vector whose entries have gcd 1.  ``v`` maps indices to nonzero exact
    values (ints or Fractions).  Against a lead 1 the step is
    ``v - c * b``; against any other lead it is fraction-free,
    ``(lead / g) * v - (c / g) * b`` with ``g = gcd(lead, c)``, so integer
    vectors stay integers.  Returns True, after adding the residual to
    ``basis``, when ``v`` does not lie in the span of ``basis``.
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
            # i leads the residual: every index below it is eliminated.  A
            # Fraction lead, even one equal to +-1, goes through _primitive,
            # so every stored lead is an int
            if c == 1 and type(c) is int:
                basis[i] = v
            elif c == -1 and type(c) is int:
                basis[i] = {j: -x for j, x in v.items()}
            else:
                basis[i] = _primitive(v, i)
            return True
        if b[i] != 1:
            c = _align(v, i, b[i])
        for j, x in b.items():
            y = v.get(j, 0) - c * x
            if y:
                if j not in v:
                    heappush(heap, j)
                v[j] = y
            else:
                del v[j]
    return False


def _pivots(rows: Iterable[dict], skip: Container[int] = ()):
    """The pivot indices of an echelon basis of the nonzero ``rows`` whose
    position is not in ``skip``.  The rows are copied, not consumed."""
    basis: dict[int, dict] = {}
    for i, row in enumerate(rows):
        if row and i not in skip:
            _reduce_into(basis, dict(row))
    return basis.keys()


def _rref_rows(vectors: Iterable[dict]) -> list[tuple[int, dict]]:
    """The nonzero rows of the reduced row echelon form of ``vectors``.

    Returns (pivot, row) pairs in ascending pivot order; each row is 1 at
    its pivot and 0 at every other pivot, with values in stored form (see
    :func:`q`).  The vectors are reduced into an echelon basis by
    :func:`_reduce_into`, then back-substituted over the pivots in
    descending order, so every later pivot row is already reduced when it is
    subtracted.  Back-substitution is fraction-free like the elimination;
    each row is divided by its pivot value once, at the end.  The reduced
    row echelon form is unique, so the rows do not depend on the order of
    elimination or on the scale of the basis.
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
            b = basis[k]
            c = row[k] if b[k] == 1 else _align(row, k, b[k])
            for j, x in b.items():
                y = row.get(j, 0) - c * x
                if y:
                    row[j] = y
                else:
                    del row[j]
    return [(p, _divided(basis[p], basis[p][p])) for p in pivots]


def _divided(row: dict, lead) -> dict:
    """``row / lead`` in stored form."""
    if lead == 1:
        return {j: q(x) for j, x in row.items()}
    return {j: q(Fraction(x, lead)) for j, x in row.items()}


def quotient_basis(d: MatrixQ, image: MatrixQ) -> tuple[MatrixQ, MatrixQ]:
    """Representatives of ker ``d`` modulo the column span of ``image``,
    and the coordinates of a vector of ker ``d`` in them.

    ``image`` must satisfy ``d * image = 0``.  The representatives are the
    columns of the canonical kernel basis (:meth:`MatrixQ.kernel_basis`)
    that enlarge the span of ``image`` and of the columns before them.
    Returns ``(basis, coordinates)``: ``basis`` holds those columns, and
    the rows of ``coordinates`` map each v in ker ``d`` to the unique x with
    v - basis * x in the span of ``image``.

    Each free column of ``d`` gives a unit row of the kernel basis, so a
    kernel vector's coordinates x in that basis are its entries at the free
    columns.  The columns of ``image`` at the free rows are reduced to rref
    pivoting on the highest index (:func:`_rref_rows` on reversed indices).
    Kernel column k enlarges the span of the image and of the columns
    before it exactly when no image vector has its highest nonzero index
    at k: the kept columns are the free positions that are not pivots.
    Reducing x modulo the image clears the pivots, so the coordinate of a
    kept k is x_k minus b[k] x_h over the reduced image vectors b, each
    with its pivot h.  ``ValueError`` if ``image`` has not ``d.cols`` rows.
    """
    if image.rows != d.cols:
        raise ValueError("row count mismatch")
    rows = d._echelon()
    pivots = {p for p, _ in rows}
    free = [f for f in range(d.cols) if f not in pivots]
    if not free:
        return _zeros(d.cols, 0), _zeros(0, d.cols)
    last = len(free) - 1
    # the image columns at the free rows, indexed last - k at free[k]
    columns: list[dict] = [{} for _ in range(image.cols)]
    for k, f in enumerate(free):
        for j, x in image._r[f].items():
            columns[j][last - k] = x
    image_rows = _rref_rows(columns)
    high = {last - r for r, _ in image_rows}
    kept = {free[k]: t for t, k in enumerate(k for k in range(len(free)) if k not in high)}
    coordinates = [{f: 1} for f in kept]
    for r, row in image_rows:
        h = free[last - r]
        for j, x in row.items():
            if j != r:
                coordinates[kept[free[last - j]]][h] = -x
    return (_kernel_columns(d.cols, rows, kept),
            MatrixQ._trusted(len(kept), d.cols, coordinates))


def _kernel_columns(n: int, rows: list[tuple[int, dict]], kept: dict) -> MatrixQ:
    """The columns of the canonical kernel basis of a matrix with ``n``
    columns and rref ``rows`` at the free columns in ``kept`` (free column
    -> output column): 1 at the free column, the negated rref rows at the
    pivots, and 0 at every other free column."""
    out = [_EMPTY] * n
    for f, t in kept.items():
        out[f] = {t: 1}
    for p, row in rows:
        out[p] = {kept[f]: -x for f, x in row.items() if f in kept}
    return MatrixQ._trusted(n, len(kept), out)


def sparse_rank(vectors: Iterable[dict]) -> int:
    """Rank of sparse vectors (dict index -> nonzero int or Fraction).

    The same elimination as :meth:`MatrixQ.rank`; the input dicts are
    copied, not consumed.
    """
    return len(_pivots(vectors))
