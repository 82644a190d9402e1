"""Finite-dimensional cochain complexes over the rationals.

The engine behind every cohomology computation in this package: graded
vector spaces with a differential, cochain maps, null-homotopy witnesses,
the long exact sequence of a short exact sequence (with the connecting map
built by the snake construction), and the splitting bookkeeping used when
an induced map vanishes.

Cohomology representatives follow a fixed convention: the canonical
kernel basis (from the reduced row echelon form of the differential) is
scanned in order and columns independent modulo the image of the previous
differential are kept.  This makes induced maps well-defined matrices and
keeps every operation deterministic.

Representatives are needed only where a map acts on cohomology: induced
maps, connecting maps, class coordinates and the long exact sequence.
There H^p comes from the rref of d_p and one elimination of the columns
of d_{p-1} in kernel coordinates (:func:`linalg.quotient_basis`), which
also yields a coordinate matrix: the class of a cocycle in the chosen
basis is one matrix product, with no system solved per induced map.
Each complex memoises H^p per degree, so those computations reuse one
result.  Complexes are immutable, which keeps the memo valid.

Where only dimensions are needed (triangulated slice profiles, the
contractibility check), :func:`cohomology_dims` uses rank-nullity instead
and ranks each differential once, from the top degree down, with
clearing: the rows of d_{p-1} at the pivots of d_p are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .linalg import MatrixQ, quotient_basis


class ComplexError(ValueError):
    """Raised when data fails to define a complex, map or homotopy."""


class ExactnessError(ValueError):
    """Raised when a sequence fails a required exactness property."""


def _nonzero_components(maps: Mapping[int, MatrixQ], shape, what: str) -> dict:
    """The nonzero matrices of ``maps`` (degree -> matrix), after checking
    that the one at degree p has shape ``shape(p)``."""
    out = {}
    for p, m in maps.items():
        if m.shape() != shape(p):
            raise ComplexError(f"{what} at degree {p} has shape {m.shape()}, expected {shape(p)}")
        if not m.is_zero():
            out[p] = m
    return out


def _product(a: MatrixQ | None, b: MatrixQ | None) -> MatrixQ | None:
    """``a * b``, or None when a factor is absent (zero): no product is
    formed."""
    return None if a is None or b is None else a * b


class CochainComplex:
    """A bounded cochain complex of finite-dimensional rational spaces.

    ``dims`` maps degree -> dimension (degrees with zero dimension may be
    omitted); ``diffs`` maps degree p to the matrix of d_p, which must have
    shape dim(p+1) x dim(p).  ``d(p+1) * d(p) = 0`` is checked on
    construction and a violation reports the offending degree.
    """

    __slots__ = ("_dims", "_diffs", "p_min", "p_max", "_cohomology")

    def __init__(self, dims: Mapping[int, int], diffs: Mapping[int, MatrixQ] | None = None):
        self._dims = {p: int(d) for p, d in dims.items() if d}
        for p, d in self._dims.items():
            if d < 0:
                raise ComplexError(f"negative dimension at degree {p}")
        self.p_min = min(self._dims, default=0)
        self.p_max = max(self._dims, default=0)
        self._cohomology: dict[int, CohomologySpace] = {}  # filled by cohomology()
        self._diffs = _nonzero_components(diffs or {}, lambda p: (self.dim(p + 1), self.dim(p)),
                                          "differential")
        # d∘d is zero where a factor is absent; multiply only the others
        for p in sorted(self._diffs):
            if p + 1 in self._diffs and not (self._diffs[p + 1] * self._diffs[p]).is_zero():
                raise ComplexError(f"d∘d != 0 at degree {p}")

    def dim(self, p: int) -> int:
        return self._dims.get(p, 0)

    def d(self, p: int) -> MatrixQ:
        return self._diffs.get(p) or MatrixQ.zeros(self.dim(p + 1), self.dim(p))

    def degrees(self) -> range:
        return range(self.p_min, self.p_max + 1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in self._dims.items())

    def __repr__(self) -> str:
        spans = ", ".join(f"{p}:{self.dim(p)}" for p in self.degrees())
        return f"CochainComplex({spans})"


@dataclass(frozen=True)
class CohomologySpace:
    """Degree, dimension and chosen cocycle representatives of H^p."""

    degree: int
    dim: int
    basis: MatrixQ  # columns are cocycle representatives in C^p
    coordinates: MatrixQ  # dim x dim C^p: a cocycle's class in the basis


class CochainMap:
    """A degree-0 map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "_maps")

    def __init__(self, source: CochainComplex, target: CochainComplex,
                 maps: Mapping[int, MatrixQ]):
        self.source = source
        self.target = target
        self._maps = _nonzero_components(maps, lambda p: (target.dim(p), source.dim(p)),
                                         "component")
        lo = min(source.p_min, target.p_min)
        hi = max(source.p_max, target.p_max)
        for p in range(lo - 1, hi + 1):
            zero = MatrixQ.zeros(target.dim(p + 1), source.dim(p))
            left = _product(self._maps.get(p + 1), source._diffs.get(p)) or zero
            right = _product(target._diffs.get(p), self._maps.get(p)) or zero
            if left != right:
                raise ComplexError(f"map does not commute with d at degree {p}")

    def at(self, p: int) -> MatrixQ:
        return self._maps.get(p) or MatrixQ.zeros(self.target.dim(p), self.source.dim(p))

    @classmethod
    def identity(cls, c: CochainComplex) -> "CochainMap":
        return cls(c, c, {p: MatrixQ.identity(c.dim(p)) for p in c.degrees()})

    @classmethod
    def zero(cls, source: CochainComplex, target: CochainComplex) -> "CochainMap":
        return cls(source, target, {})

    def is_endomorphism(self) -> bool:
        return self.source is self.target


class CochainHomotopy:
    """Degree -1 maps h_p: C^p -> C^{p-1} on a single complex."""

    __slots__ = ("complex", "_maps")

    def __init__(self, complex: CochainComplex, maps: Mapping[int, MatrixQ]):
        self.complex = complex
        self._maps = _nonzero_components(maps, lambda p: (complex.dim(p - 1), complex.dim(p)),
                                         "homotopy")

    def at(self, p: int) -> MatrixQ:
        return self._maps.get(p) or MatrixQ.zeros(self.complex.dim(p - 1), self.complex.dim(p))


# -- cohomology -----------------------------------------------------------

def cohomology(c: CochainComplex, p: int) -> CohomologySpace:
    """H^p(c) with canonical cocycle representatives, computed once per degree.

    dim H^p = nullity(d_p) - rank(d_{p-1}); the representative columns
    complete the image of d_{p-1} to the kernel of d_p.
    """
    h = c._cohomology.get(p)
    if h is None:
        basis, coordinates = quotient_basis(c.d(p), c.d(p - 1))
        h = c._cohomology[p] = CohomologySpace(degree=p, dim=basis.cols, basis=basis,
                                               coordinates=coordinates)
    return h


def cohomology_dims(c: CochainComplex) -> dict[int, int]:
    """dim H^p(c) for every degree, without representatives.

    By rank-nullity, dim H^p = dim C^p - rank d_p - rank d_{p-1}.  Each
    differential is ranked once, from the top degree down, and the rank of
    d_{p-1} skips ("clears") the rows whose index is a pivot of d_p.

    Clearing keeps the rank.  A pivot i of d_p is the lowest nonzero index
    of some v = a d_p, and v d_{p-1} = a d_p d_{p-1} = 0, so row i of
    d_{p-1} is -1/v_i times the sum of v_j times row j over j > i: it lies
    in the span of the rows above it.  By descending induction on i, every
    cleared row lies in the span of the uncleared ones.  Only d∘d = 0 is
    used, which every complex passes on construction.
    """
    ranks, cleared = {}, ()
    for p in range(c.p_max, c.p_min - 2, -1):
        cleared = c.d(p).pivots(skip=cleared)
        ranks[p] = len(cleared)
    return {p: c.dim(p) - ranks[p] - ranks[p - 1] for p in c.degrees()}


def class_coordinates(c: CochainComplex, p: int, vectors: MatrixQ) -> MatrixQ:
    """Coordinates of cocycle columns in the chosen basis of H^p(c).

    The image of d_{p-1} and the representatives span the cocycles, so a
    column has coordinates exactly when d_p sends it to zero; they are then
    unique, and the coordinate matrix of :func:`cohomology` gives them.
    """
    h = cohomology(c, p)
    if not (c.d(p) * vectors).is_zero():
        raise ExactnessError(f"vector is not a cocycle-representable class at degree {p}")
    return h.coordinates * vectors


def induced_map(f: CochainMap, p: int) -> MatrixQ:
    """Matrix of H^p(f) in the chosen cohomology bases."""
    hs = cohomology(f.source, p)
    mapped = f.at(p) * hs.basis
    return class_coordinates(f.target, p, mapped)


def check_null_homotopy(f: CochainMap, h: CochainHomotopy) -> bool:
    """True iff f(p) = d(p-1) h(p) + h(p+1) d(p) at every degree."""
    if not f.is_endomorphism():
        raise ComplexError("null-homotopy check requires an endomorphism")
    c = f.source
    if h.complex is not c and (h.complex._dims != c._dims):
        raise ComplexError("homotopy is attached to a different complex")
    for p in range(c.p_min, c.p_max + 1):
        if f.at(p) != c.d(p - 1) * h.at(p) + h.at(p + 1) * c.d(p):
            return False
    return True


@dataclass(frozen=True)
class ContractibilityVerdict:
    singular_degrees: tuple[int, ...]  # degrees p where f(p) is not invertible
    nonzero_degrees: tuple[int, ...]  # degrees p where H^p != 0

    @property
    def invertible(self) -> bool:
        return not self.singular_degrees

    @property
    def cohomology_vanishes(self) -> bool:
        return not self.nonzero_degrees


def contractibility_check(f: CochainMap, h: CochainHomotopy) -> ContractibilityVerdict:
    """Verdict for the ``invertible null-homotopic endomorphism`` mechanism.

    Requires ``check_null_homotopy(f, h)``; when every f(p) is invertible
    the cohomology must vanish in all degrees, and that implication is
    re-verified rather than assumed.
    """
    if not check_null_homotopy(f, h):
        raise ComplexError("homotopy witness invalid: f != dh + hd")
    c = f.source
    verdict = ContractibilityVerdict(
        singular_degrees=tuple(p for p in c.degrees() if not f.at(p).is_invertible()),
        nonzero_degrees=tuple(p for p, h in cohomology_dims(c).items() if h))
    if verdict.invertible and not verdict.cohomology_vanishes:
        # mathematically impossible; a failure here means the engine is broken
        raise AssertionError("invertible null-homotopic map with nonvanishing cohomology")
    return verdict


# -- short and long exact sequences ----------------------------------------

class ShortExactSeq:
    """0 -> A -> B -> C -> 0, exact in every degree (verified)."""

    __slots__ = ("a", "b", "c", "i", "q")

    def __init__(self, i: CochainMap, q: CochainMap):
        if i.target is not q.source:
            raise ExactnessError("middle complexes of i and q differ")
        self.a, self.b, self.c = i.source, i.target, q.target
        self.i, self.q = i, q
        for p in self.degrees():
            ip, qp = i.at(p), q.at(p)
            rank_i = ip.rank()
            if rank_i != self.a.dim(p):
                raise ExactnessError(f"i is not injective at degree {p}")
            rank_q = qp.rank()
            if rank_q != self.c.dim(p):
                raise ExactnessError(f"q is not surjective at degree {p}")
            if not (qp * ip).is_zero():
                raise ExactnessError(f"q∘i != 0 at degree {p}")
            if rank_i + rank_q != self.b.dim(p):
                raise ExactnessError(f"im(i) != ker(q) at degree {p}")

    def degrees(self) -> range:
        lo = min(self.a.p_min, self.b.p_min, self.c.p_min)
        hi = max(self.a.p_max, self.b.p_max, self.c.p_max)
        return range(lo, hi + 1)


@dataclass(frozen=True)
class LESNode:
    """One node of a long exact sequence with its outgoing map."""

    degree: int
    position: str  # 'A', 'B' or 'C'
    dim: int
    outgoing: MatrixQ  # map to the next node (zero matrix at the end)


class LongExactSeq:
    """The long exact sequence ... -> H^p(A) -> H^p(B) -> H^p(C) -> H^{p+1}(A) -> ..."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: Iterable[LESNode]):
        self.nodes = tuple(nodes)

    def node(self, degree: int, position: str) -> LESNode:
        for n in self.nodes:
            if n.degree == degree and n.position == position:
                return n
        raise KeyError((degree, position))


def connecting_map(s: ShortExactSeq, p: int) -> MatrixQ:
    """Snake-construction connecting map H^p(C) -> H^{p+1}(A).

    Each C-cocycle representative is lifted through q, pushed through the
    differential of B, pulled back through i, and expressed in the chosen
    basis of H^{p+1}(A).
    """
    hc = cohomology(s.c, p)
    ha1 = cohomology(s.a, p + 1)
    if hc.dim == 0 or ha1.dim == 0:
        return MatrixQ.zeros(ha1.dim, hc.dim)
    lift = s.q.at(p).solve(hc.basis)
    if lift is None:
        raise ExactnessError(f"failed to lift cocycles through q at degree {p}")
    db = s.b.d(p) * lift
    pulled = s.i.at(p + 1).solve(db)
    if pulled is None:
        raise ExactnessError(f"failed to pull back through i at degree {p + 1}")
    return class_coordinates(s.a, p + 1, pulled)


def long_exact_sequence(s: ShortExactSeq) -> LongExactSeq:
    nodes = []
    degs = s.degrees()
    for p in degs:
        ha = cohomology(s.a, p)
        hb = cohomology(s.b, p)
        hcp = cohomology(s.c, p)
        nodes.append(LESNode(p, "A", ha.dim, induced_map(s.i, p)))
        nodes.append(LESNode(p, "B", hb.dim, induced_map(s.q, p)))
        if p + 1 in degs:
            out = connecting_map(s, p)
        else:
            out = MatrixQ.zeros(0, hcp.dim)
        nodes.append(LESNode(p, "C", hcp.dim, out))
    return LongExactSeq(nodes)


@dataclass(frozen=True)
class NodeVerdict:
    degree: int
    position: str
    exact: bool
    detail: str


def check_exactness(seq: LongExactSeq) -> list[NodeVerdict]:
    """Exactness verdict at every node: image(incoming) = kernel(outgoing).

    Verified as containment (outgoing∘incoming = 0) plus the rank-nullity
    count rank(incoming) + rank(outgoing) = dim(node).
    """
    verdicts = []
    nodes = seq.nodes
    ranks = [node.outgoing.rank() for node in nodes]  # each map ranked once
    for idx, node in enumerate(nodes):
        incoming = nodes[idx - 1].outgoing if idx > 0 else MatrixQ.zeros(node.dim, 0)
        rank_in = ranks[idx - 1] if idx > 0 else 0
        outgoing = node.outgoing
        composite_zero = (outgoing * incoming).is_zero()
        counts = rank_in + ranks[idx] == node.dim
        ok = composite_zero and counts
        detail = "ok" if ok else (
            f"im∘out != 0" if not composite_zero else
            f"rank(in)={rank_in} + rank(out)={ranks[idx]} != dim={node.dim}")
        verdicts.append(NodeVerdict(node.degree, node.position, ok, detail))
    return verdicts


@dataclass(frozen=True)
class SplitStatement:
    """A derived short exact sequence 0 -> left -> middle -> right -> 0.

    Each term is (position, degree, dim); ``holds`` records the forced
    dimension identity dim(middle) = dim(left) + dim(right).
    """

    left: tuple[str, int, int]
    middle: tuple[str, int, int]
    right: tuple[str, int, int]
    holds: bool


def split_by_null_map(s: ShortExactSeq, which: str) -> list[SplitStatement]:
    """Split the long exact sequence at a factor whose maps induce zero.

    ``which`` in {'A','B','C'} designates the factor whose outgoing
    induced maps (i*, q* or the connecting map, respectively) are required
    to vanish in every degree; the LES then breaks into short exact
    sequences of the remaining nodes and forces dimension identities.
    """
    if which not in ("A", "B", "C"):
        raise ValueError("which must be 'A', 'B' or 'C'")
    les = long_exact_sequence(s)
    bad = [n.degree for n in les.nodes if n.position == which and not n.outgoing.is_zero()]
    if bad:
        raise ExactnessError(
            f"designated induced maps are not zero at degrees {sorted(set(bad))}")

    def dims(pos: str, p: int) -> int:
        try:
            return les.node(p, pos).dim
        except KeyError:
            return 0

    out = []
    degs = [n.degree for n in les.nodes]
    lo, hi = min(degs), max(degs)
    for p in range(lo, hi + 1):
        if which == "A":
            left = ("B", p, dims("B", p))
            middle = ("C", p, dims("C", p))
            right = ("A", p + 1, dims("A", p + 1))
        elif which == "B":
            left = ("C", p, dims("C", p))
            middle = ("A", p + 1, dims("A", p + 1))
            right = ("B", p + 1, dims("B", p + 1))
        else:
            left = ("A", p, dims("A", p))
            middle = ("B", p, dims("B", p))
            right = ("C", p, dims("C", p))
        if left[2] == middle[2] == right[2] == 0:
            continue
        out.append(SplitStatement(
            left=left, middle=middle, right=right,
            holds=(middle[2] == left[2] + right[2])))
    return out


# -- small constructions used in tests and generators ----------------------

def direct_sum(x: CochainComplex, y: CochainComplex) -> CochainComplex:
    dims = {p: x.dim(p) + y.dim(p) for p in {*x._dims, *y._dims}}
    diffs = {p: x.d(p).hstack(MatrixQ.zeros(x.dim(p + 1), y.dim(p))).vstack(
                MatrixQ.zeros(y.dim(p + 1), x.dim(p)).hstack(y.d(p)))
             for p in range(min(x.p_min, y.p_min), max(x.p_max, y.p_max) + 1)}
    return CochainComplex(dims, diffs)


def point_complex(degree: int, dim: int = 1) -> CochainComplex:
    """dim-dimensional space concentrated in one degree, zero differential."""
    return CochainComplex({degree: dim})


def interval_complex(degree: int) -> CochainComplex:
    """The contractible complex 0 -> Q -> Q -> 0 with d = id, at (degree, degree+1)."""
    return CochainComplex({degree: 1, degree + 1: 1}, {degree: MatrixQ.identity(1)})
