"""Young diagrams, hook ranks and index-symmetry projectors.

A diagram with rows (r_1 >= r_2 >= ...) labels an irreducible tensor
symmetry type.  Tensor slots are assigned to cells column by column, so
the slot groups written ``t_{abc:de}`` are the *columns* of the diagram:
the first group is antisymmetric of length = first column, and so on.

The projector first symmetrizes over each row, then antisymmetrizes over
each column, and divides by the product of hook lengths, which makes it
idempotent.  Its rank on n-dimensional indices is the hook content
formula: the product over cells of (n + column - row) divided by the
product of hook lengths.

Dense component arrays use the row-major flat index
``(((i_0 * n) + i_1) * n + ...) + i_{k-1}``, and ``_index_table`` is the
one place that computes it.  On those tables ``slot_combination`` builds
the signed sum of slot permutations to which every Young projection,
Calabi operator and metric product reduces.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .linalg import MatrixQ


@dataclass(frozen=True)
class YoungDiagram:
    """Non-increasing positive row lengths."""

    rows: tuple[int, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("diagram needs at least one row")
        if any(r <= 0 for r in self.rows):
            raise ValueError("row lengths must be positive")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError("row lengths must be non-increasing")

    @property
    def cells(self) -> int:
        return sum(self.rows)

    @property
    def column_lengths(self) -> tuple[int, ...]:
        width = self.rows[0]
        return tuple(sum(1 for r in self.rows if r > j) for j in range(width))

    def hook_length(self, i: int, j: int) -> int:
        arm = self.rows[i] - j - 1
        leg = self.column_lengths[j] - i - 1
        return arm + leg + 1

    def hook_product(self) -> int:
        return _prod(self.hook_length(i, j)
                     for i, r in enumerate(self.rows) for j in range(r))

    def column_slots(self) -> tuple[tuple[int, ...], ...]:
        """Tensor slots of each column under column-major cell assignment."""
        cols = self.column_lengths
        out = []
        start = 0
        for length in cols:
            out.append(tuple(range(start, start + length)))
            start += length
        return tuple(out)

    def row_slots(self) -> tuple[tuple[int, ...], ...]:
        """Tensor slots of each row under column-major cell assignment."""
        cols = self.column_lengths
        starts = [sum(cols[:j]) for j in range(len(cols))]
        out = []
        for i in range(len(self.rows)):
            row = tuple(starts[j] + i for j, length in enumerate(cols) if length > i)
            out.append(row)
        return tuple(out)


def _prod(items) -> int:
    out = 1
    for x in items:
        out *= x
    return out


def hook_rank(diagram: YoungDiagram, n: int) -> int:
    """Dimension of the symmetry type on n-dimensional indices.

    Numerator: place n in the top-left cell, +1 to the right, -1 down;
    denominator: hook lengths.
    """
    if n < 1:
        raise ValueError(f"index dimension n must be at least 1, got {n}")
    num = _prod(n + j - i for i, r in enumerate(diagram.rows) for j in range(r))
    value = Fraction(num, diagram.hook_product())
    if value.denominator != 1:
        raise AssertionError("hook content formula must be an integer")
    return int(value)


def standard_tableaux_count(diagram: YoungDiagram) -> int:
    """Number of standard Young tableaux (hook length formula for S_k)."""
    return factorial(diagram.cells) // diagram.hook_product()


# -- permutation action on dense component arrays ----------------------------

def permutation_sign(seq) -> int:
    """Sign of the permutation that sorts a sequence of distinct values."""
    sign = 1
    for i, x in enumerate(seq):
        for y in seq[i + 1:]:
            if x > y:
                sign = -sign
    return sign


# (n, k, perm) -> index table; unsigned 16-bit entries while n^k allows
_INDEX_TABLES: dict[tuple, array] = {}


def _index_table(n: int, k: int, perm: tuple) -> array:
    """table[target_flat] = source_flat with source digits i_{perm[t]}."""
    key = (n, k, perm)
    table = _INDEX_TABLES.get(key)
    if table is not None:
        return table
    entries = []
    stack = [0] * k
    for flat in range(n ** k):
        rem = flat
        for t in range(k - 1, -1, -1):
            stack[t] = rem % n
            rem //= n
        src = 0
        for t in range(k):
            src = src * n + stack[perm[t]]
        entries.append(src)
    table = _INDEX_TABLES[key] = array("H" if n ** k <= 1 << 16 else "L", entries)
    return table


def _slot_perms(k: int, slots, signed: bool):
    """All permutations of ``slots`` (identity elsewhere) with signs."""
    out = []
    for perm in permutations(range(len(slots))):
        full = list(range(k))
        for pos, target in enumerate(perm):
            full[slots[pos]] = slots[target]
        sign = permutation_sign(perm) if signed else 1
        out.append((tuple(full), sign))
    return out


def slot_combination(comps, n: int, k: int, terms, zero):
    """out[I] = sum of c * comps[I o perm] over the (perm, c) terms, c an int.

    ``I o perm`` is the index whose slot t holds I[perm[t]], the lookup of
    ``_index_table(n, k, perm)``.  Each nonzero input component is pushed to
    its target through the table of the inverse permutation, so zero inputs
    cost nothing.  ``zero`` is the ring's zero (a ``Fraction`` or a chart
    scalar) and fixes the zero test and the integer scaling once per call.
    """
    is_zero, scale = _ring_ops(zero)
    nonzero = [(i, v) for i, v in enumerate(comps) if not is_zero(v)]
    out = [zero] * (n ** k)
    for perm, c in terms:
        inverse = [0] * k
        for t, p in enumerate(perm):
            inverse[p] = t
        table = _index_table(n, k, tuple(inverse))
        if c == 1:
            for src, v in nonzero:
                tgt = table[src]
                out[tgt] = out[tgt] + v
        elif c == -1:
            for src, v in nonzero:
                tgt = table[src]
                out[tgt] = out[tgt] - v
        else:
            for src, v in nonzero:
                tgt = table[src]
                out[tgt] = out[tgt] + scale(v, c)
    return out


def symmetrize_slots(comps, n: int, k: int, slots, signed: bool, zero):
    """Sum over permutations of the given slots (signed for antisymmetry)."""
    if len(slots) < 2:
        return list(comps)
    return slot_combination(comps, n, k, _slot_perms(k, slots, signed), zero)


def _ring_ops(zero):
    """The zero test and scaling of the ring whose zero is ``zero``."""
    if isinstance(zero, Fraction):
        return operator.not_, operator.mul
    ring = type(zero)
    return ring.is_zero, ring.scale


def project_components(comps, n: int, diagram: YoungDiagram, zero):
    """Apply the idempotent symmetry projector to a dense component array.

    Rows are symmetrized first, columns antisymmetrized second, and the
    result is divided by the product of hook lengths.
    """
    k = diagram.cells
    if len(comps) != n ** k:
        raise ValueError(f"expected {n ** k} components for {diagram}")
    cur = list(comps)
    for row in diagram.row_slots():
        cur = symmetrize_slots(cur, n, k, row, signed=False, zero=zero)
    for col in diagram.column_slots():
        cur = symmetrize_slots(cur, n, k, col, signed=True, zero=zero)
    c = Fraction(1, diagram.hook_product())
    _, scale = _ring_ops(zero)
    return [scale(v, c) for v in cur]


def is_symmetric(comps, n: int, diagram: YoungDiagram, zero) -> bool:
    """True iff the component array is fixed by its symmetry projector."""
    projected = project_components(comps, n, diagram, zero)
    return all(a == b for a, b in zip(projected, comps))


def young_projector(diagram: YoungDiagram, n: int) -> MatrixQ:
    """Dense rational matrix of the projector on (Q^n)^{tensor k}.

    Built from the group-algebra form pi = sum c_w P_w: each permutation
    contributes a single entry per row I, at the column of the index I o w
    read off ``_index_table``.
    """
    k = diagram.cells
    size = n ** k
    grid = [[Fraction(0)] * size for _ in range(size)]
    for w, c in projector_group_algebra(diagram).items():
        for i, j in enumerate(_index_table(n, k, w)):
            grid[i][j] += c
    return MatrixQ(size, size, grid)


def projector_rank(diagram: YoungDiagram, n: int) -> int:
    """Rank of the symmetry projector, by Gaussian elimination."""
    return young_projector(diagram, n).rank()


def projector_group_algebra(diagram: YoungDiagram):
    """The projector as a signed sum of slot permutations, coefficient map.

    Returns a dict perm -> Fraction with projector = sum c_w P_w, where
    P_w acts by (P_w T)[i] = T[i lifted through w].  Used to check
    idempotency in the group algebra, which implies matrix idempotency.
    """
    k = diagram.cells
    coeffs: dict[tuple, Fraction] = {tuple(range(k)): Fraction(1)}

    def convolve(current, perms_signs, scale):
        out: dict[tuple, Fraction] = {}
        for w2, c2 in current.items():
            for w1, s1 in perms_signs:
                w = tuple(w1[w2[t]] for t in range(k))
                c = c2 * s1 * scale
                acc = out.get(w)
                if acc is None:
                    out[w] = c
                else:
                    acc += c
                    if acc:
                        out[w] = acc
                    else:
                        del out[w]
        return out

    one = Fraction(1)
    for row in diagram.row_slots():
        coeffs = convolve(coeffs, _slot_perms(k, row, signed=False), one)
    for col in diagram.column_slots():
        coeffs = convolve(coeffs, _slot_perms(k, col, signed=True), one)
    c = Fraction(1, diagram.hook_product())
    return {w: v * c for w, v in coeffs.items()}


def group_algebra_idempotent(diagram: YoungDiagram) -> bool:
    """pi * pi == pi as an element of the group algebra of S_k."""
    pi = projector_group_algebra(diagram)
    square: dict[tuple, Fraction] = {}
    k = diagram.cells
    for w1, c1 in pi.items():
        for w2, c2 in pi.items():
            w = tuple(w1[w2[t]] for t in range(k))
            c = c1 * c2
            acc = square.get(w)
            if acc is None:
                square[w] = c
            else:
                acc += c
                if acc:
                    square[w] = acc
                else:
                    del square[w]
    return square == pi


CALABI_DIAGRAMS = {
    0: YoungDiagram((1,)),
    1: YoungDiagram((2,)),
    2: YoungDiagram((2, 2)),
    3: YoungDiagram((2, 2, 1)),
    4: YoungDiagram((2, 2, 1, 1)),
}
