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
``(((i_0 * n) + i_1) * n + ...) + i_{k-1}``, and :class:`SlotOrbits` is the
one place that computes it.  A tensor of a diagram's type has the +-1 slot
symmetries t[I o w] = s * t[I] of :func:`slot_symmetries`, derived from the
projector pi as the pairs with w pi = s pi.  Such a signed slot group,
a frozenset of (w, s) pairs, is what a symmetry tag holds
(:func:`slot_group`).  :func:`orbits` is the one place that splits the
indices into orbits, for a diagram, a group or no tag, built on first use
and cached per group: one canonical index per orbit, a signed copy for
every other member, and the orbits on which the symmetries force a zero.
:func:`lifted_group` and :func:`contracted_group` give the groups that
survive a covariant derivative and a trace.  Storage stays dense;
computation does not: ``slot_combination``, the signed sum of slot
permutations to which every Young projection, Calabi operator and metric
product reduces, evaluates each canonical index once and fills the orbit.
An output without a declared symmetry has the trivial group, so every
index is its own orbit and is evaluated.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from math import factorial

from .linalg import MatrixQ
from .polynomials import sum_of_products


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


def _compose(w1: tuple, w2: tuple) -> tuple:
    """The group-algebra product w1 w2: (w1 w2)[t] = w1[w2[t]], so that
    P_{w1} P_{w2} = P_{w1 w2} on component arrays."""
    return tuple(w1[t] for t in w2)


def _digits(flat: int, n: int, k: int) -> tuple[int, ...]:
    out = [0] * k
    for t in range(k - 1, -1, -1):
        flat, out[t] = divmod(flat, n)
    return tuple(out)


def _weights(n: int, k: int, perm: tuple) -> list[int]:
    """Per source slot, its place value in the flat index of I o perm.

    Slot t of ``I o perm`` holds I[perm[t]], so digit s of I lands at the
    slot t with perm[t] = s and is worth n^(k-1-t) there."""
    out = [0] * k
    for t, s in enumerate(perm):
        out[s] = n ** (k - 1 - t)
    return out


class SlotOrbits:
    """The flat indices of (Q^n)^{(x) k} modulo a group of signed slot
    permutations (w, s), which act on a tensor of that symmetry by
    t[I o w] = s * t[I].

    ``canonical`` holds the smallest flat index of every orbit on which the
    group forces no zero, ``fill`` the (flat, canonical, sign) triples
    that give every other member of those orbits as a signed copy, and
    ``zeros`` the flat indices of the orbits whose stabiliser contains a
    -1 (those components vanish).  :meth:`fill_from` turns values at the
    canonical indices into the dense component list by one gather: a
    cached array gives, per flat index, its position in the pool
    ``values + [-values[i] for i in negated] + [zero]``, where ``negated``
    lists once each canonical index that some member copies with sign -1.
    """

    def __init__(self, n: int, k: int, canonical, fill, zeros):
        self.n = n
        self.k = k
        self.canonical = tuple(canonical)
        self.fill = tuple(fill)
        self.zeros = tuple(zeros)
        self._sources: dict[tuple, array] = {}

    def fill_from(self, values, zero) -> list:
        """Dense components from the ``values`` at the canonical indices."""
        negated, gather = self._gather
        pool = list(values)
        pool += [-pool[i] for i in negated]
        pool.append(zero)
        return [pool[i] for i in gather]

    @cached_property
    def _gather(self) -> tuple[list[int], array]:
        """The canonical positions that need a negation, and per flat index
        its position in the pool of :meth:`fill_from`."""
        position = {flat: i for i, flat in enumerate(self.canonical)}
        negated = sorted({position[canon] for _, canon, sign in self.fill if sign < 0})
        slot = {i: len(self.canonical) + j for j, i in enumerate(negated)}
        pool_zero = len(self.canonical) + len(negated)
        gather = [pool_zero] * (self.n ** self.k)
        for flat, i in position.items():
            gather[flat] = i
        for flat, canon, sign in self.fill:
            i = position[canon]
            gather[flat] = i if sign > 0 else slot[i]
        return negated, array("H" if pool_zero < 1 << 16 else "L", gather)

    def sources(self, perm: tuple) -> array:
        """entry i = flat index of I o perm, I the i-th canonical index."""
        table = self._sources.get(perm)
        if table is None:
            weights = _weights(self.n, self.k, perm)
            table = self._sources[perm] = array(
                "H" if self.n ** self.k <= 1 << 16 else "L",
                [sum(map(operator.mul, digits, weights)) for digits in self.digits])
        return table

    @cached_property
    def digits(self) -> list[tuple[int, ...]]:
        """The digits (i_0, ..., i_{k-1}) of each canonical index."""
        return [_digits(flat, self.n, self.k) for flat in self.canonical]


def _build_orbits(n: int, k: int, group) -> SlotOrbits:
    """Orbits by digit arithmetic: each orbit's members are computed once,
    from its smallest index, which is the first one the scan meets."""
    moves = [(_weights(n, k, w), s) for w, s in sorted(group)]
    seen = bytearray(n ** k)
    canonical, fill, zeros = [], [], []
    for flat in range(n ** k):
        if seen[flat]:
            continue
        digits = _digits(flat, n, k)
        signs: dict[int, int] = {}
        vanishes = False
        for weights, s in moves:
            image = sum(map(operator.mul, digits, weights))
            if signs.setdefault(image, s) != s:
                vanishes = True
        for image in signs:
            seen[image] = 1
        if vanishes:
            zeros.extend(signs)
        else:
            canonical.append(flat)
            fill.extend((image, flat, s) for image, s in sorted(signs.items()) if image != flat)
    return SlotOrbits(n, k, canonical, fill, sorted(zeros))


@lru_cache(maxsize=None)
def slot_symmetries(diagram: YoungDiagram) -> frozenset:
    """The pairs (w, s), s = +-1, with w pi = s pi for the projector pi.

    Every tensor in the image of pi then has t[I o w] = s * t[I].  The
    coefficient of w in w pi is that of the identity in pi, so only the
    permutations whose coefficient in pi is +-that one are candidates.
    """
    pi = dict(_projector_terms(diagram))
    one = pi[tuple(range(diagram.cells))]
    out = set()
    for w, c in pi.items():
        if abs(c) != one:
            continue
        s = 1 if c == one else -1
        if {_compose(w, u): s * cu for u, cu in pi.items()} == pi:
            out.add((w, s))
    return frozenset(out)


def slot_group(symmetry) -> frozenset | None:
    """The signed slot group of a symmetry tag: a diagram's
    :func:`slot_symmetries`, a group of (perm, sign) pairs as given, and
    None for no tag or the trivial group, so that two tags for one group
    compare equal."""
    group = slot_symmetries(symmetry) if isinstance(symmetry, YoungDiagram) else symmetry
    return group if group is not None and len(group) > 1 else None


def group_rank(group: frozenset) -> int:
    """The number of slots a signed slot group permutes."""
    return len(next(iter(group))[0])


@lru_cache(maxsize=None)
def lifted_group(group: frozenset) -> frozenset:
    """``group`` acting on the last k of k + 1 slots: the slot symmetries of
    the covariant derivative (extra slot leftmost) of a tensor with
    ``group``."""
    return frozenset(((0,) + tuple(t + 1 for t in w), s) for w, s in group)


@lru_cache(maxsize=None)
def contracted_group(group: frozenset, i: int, j: int) -> frozenset | None:
    """The slot symmetries that survive the contraction of slots i and j.

    An element (w, s) that maps the pair {i, j} onto itself maps each term
    g^{ab} T[..a@i..b@j..] of the trace to s times a term of the same
    trace (g^{ab} is symmetric), so its restriction to the other slots is
    a symmetry of the trace with the sign s.  An element that moves a
    contracted slot elsewhere is dropped.  If one restriction arises with
    both signs, the group forces the trace to vanish on its orbits.
    """
    rest = [t for t in range(group_rank(group)) if t not in (i, j)]
    place = {t: pos for pos, t in enumerate(rest)}
    return slot_group(frozenset((tuple(place[w[t]] for t in rest), s)
                                for w, s in group if {w[i], w[j]} == {i, j}))


@lru_cache(maxsize=None)
def orbits(n: int, k: int, symmetry=None) -> SlotOrbits:
    """The orbits of the rank-k indices over n values under a symmetry tag
    (a diagram, a signed slot group or None), built on first use and
    cached.  A diagram and its group share one table, and None or the
    trivial group makes every index its own orbit.

    A group that fixes slot 0, such as that of a covariant derivative, has
    the orbits of its action on the other slots once per value of slot 0;
    they are shifted, not scanned again."""
    group = slot_group(symmetry)
    if group is not symmetry:
        return orbits(n, k, group)
    if group is None:
        return _build_orbits(n, k, ((tuple(range(k)), 1),))
    if not k or any(w[0] for w, _ in group):
        return _build_orbits(n, k, group)
    inner = orbits(n, k - 1, frozenset((tuple(t - 1 for t in w[1:]), s) for w, s in group))
    shifts = [c * n ** (k - 1) for c in range(n)]
    return SlotOrbits(
        n, k,
        [s + flat for s in shifts for flat in inner.canonical],
        [(s + flat, s + canon, sign) for s in shifts for flat, canon, sign in inner.fill],
        [s + flat for s in shifts for flat in inner.zeros])


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


def _pull(comps, orb: SlotOrbits, terms, zero) -> list:
    """sum of c * comps[I o perm] over the (perm, c) terms, c an int, at
    each canonical index I of ``orb``: the nonzero terms of each index are
    gathered and summed by one :func:`causalcoh.polynomials.sum_of_products`."""
    products = [[] for _ in orb.canonical]
    for perm, c in terms:
        for bucket, src in zip(products, orb.sources(perm)):
            v = comps[src]
            if v.terms:
                bucket.append((c, v, None))
    return [sum_of_products(zero.nvars, p) if p else zero for p in products]


def slot_combination(comps, n: int, k: int, terms, zero,
                     diagram: YoungDiagram | None = None):
    """out[I] = sum of c * comps[I o perm] over the (perm, c) terms, c an int.

    ``I o perm`` is the index whose slot t holds I[perm[t]].  With a
    ``diagram`` the output is declared to have its slot symmetries: the sum
    is evaluated at one canonical index per orbit and the rest of the orbit
    is filled with signed copies.  Without one every index is evaluated.
    ``comps`` are chart scalars and ``zero`` is the chart's zero scalar.
    """
    if diagram is not None and diagram.cells != k:
        raise ValueError(f"a rank-{k} output cannot have the symmetry of {diagram}")
    orb = orbits(n, k, diagram)
    return orb.fill_from(_pull(comps, orb, terms, zero), zero)


def symmetrize_slots(comps, n: int, k: int, slots, signed: bool, zero):
    """Sum over permutations of the given slots (signed for antisymmetry)."""
    if len(slots) < 2:
        return list(comps)
    return slot_combination(comps, n, k, _slot_perms(k, slots, signed), zero)


@lru_cache(maxsize=None)
def _projector_terms(diagram: YoungDiagram) -> tuple:
    """The projector times its hook product: integer (perm, c) terms."""
    hooks = diagram.hook_product()
    return tuple(sorted((w, int(c * hooks))
                        for w, c in projector_group_algebra(diagram).items()))


def project_components(comps, n: int, diagram: YoungDiagram, zero):
    """Apply the idempotent symmetry projector to a dense component array.

    The projector's group-algebra form is pulled with integer coefficients
    at the canonical indices of ``orbits(n, k, diagram)``, each result is
    divided by the product of hook lengths once, and the orbits are filled.
    """
    k = diagram.cells
    if len(comps) != n ** k:
        raise ValueError(f"expected {n ** k} components for {diagram}")
    orb = orbits(n, k, diagram)
    c = Fraction(1, diagram.hook_product())
    values = [v.scale(c) for v in _pull(comps, orb, _projector_terms(diagram), zero)]
    return orb.fill_from(values, zero)


def is_symmetric(comps, n: int, diagram: YoungDiagram, zero) -> bool:
    """True iff the component array is fixed by its symmetry projector."""
    projected = project_components(comps, n, diagram, zero)
    return all(a == b for a, b in zip(projected, comps))


def young_projector(diagram: YoungDiagram, n: int) -> MatrixQ:
    """Sparse rational matrix of the projector on (Q^n)^{tensor k}.

    Built from the integer group-algebra form hooks * pi = sum c_w P_w: each
    permutation adds c_w to row I at the column of the index I o w, read off
    the untagged ``orbits(n, k)``, and the rows are divided by the hook
    product once.
    """
    k = diagram.cells
    rows: list[dict] = [{} for _ in range(n ** k)]
    for w, c in _projector_terms(diagram):
        for row, j in zip(rows, orbits(n, k).sources(w)):
            row[j] = row.get(j, 0) + c
    return MatrixQ._trusted(n ** k, n ** k, ({j: c for j, c in row.items() if c} for row in rows)
                            ).scale(Fraction(1, diagram.hook_product()))


def projector_rank(diagram: YoungDiagram, n: int) -> int:
    """Rank of the symmetry projector, by Gaussian elimination."""
    return young_projector(diagram, n).rank()


def _multiply(a: dict, b: dict) -> dict:
    """Product of two group-algebra elements, perm -> coefficient maps."""
    out: dict[tuple, Fraction] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = _compose(w1, w2)
            acc = out.get(w, 0) + c1 * c2
            if acc:
                out[w] = acc
            else:
                out.pop(w, None)
    return out


def projector_group_algebra(diagram: YoungDiagram):
    """The projector as a signed sum of slot permutations, coefficient map.

    Returns a dict perm -> Fraction with projector = sum c_w P_w, where
    P_w acts by (P_w T)[i] = T[i lifted through w].  Used to check
    idempotency in the group algebra, which implies matrix idempotency.
    """
    k = diagram.cells
    coeffs: dict[tuple, Fraction] = {tuple(range(k)): Fraction(1, diagram.hook_product())}
    for row in diagram.row_slots():
        coeffs = _multiply(dict(_slot_perms(k, row, signed=False)), coeffs)
    for col in diagram.column_slots():
        coeffs = _multiply(dict(_slot_perms(k, col, signed=True)), coeffs)
    return coeffs


def group_algebra_idempotent(diagram: YoungDiagram) -> bool:
    """pi * pi == pi as an element of the group algebra of S_k."""
    pi = projector_group_algebra(diagram)
    return _multiply(pi, pi) == pi


CALABI_DIAGRAMS = {
    0: YoungDiagram((1,)),
    1: YoungDiagram((2,)),
    2: YoungDiagram((2, 2)),
    3: YoungDiagram((2, 2, 1)),
    4: YoungDiagram((2, 2, 1, 1)),
}
