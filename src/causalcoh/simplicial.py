"""Finite simplicial complexes, rational Betti numbers and cohomology profiles.

A :class:`CohomologyProfile` packages the ordinary and compactly supported
cohomology dimensions of a spatial slice.  Closed oriented slices get both
from a triangulation; noncompact slices are covered by presets and the
Künneth product combinator, never by infinite triangulations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .complexes import CochainComplex, cohomology, cohomology_dims
from .linalg import MatrixQ


class TriangulationError(ValueError):
    pass


@dataclass(frozen=True)
class SimplicialComplex:
    """Face-closed simplicial complex with deterministic lexicographic order.

    ``faces[p]`` lists the p-faces as ascending vertex tuples, sorted
    lexicographically; orientation is fixed by the ascending vertex order.
    """

    vertex_count: int
    faces: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.faces)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(fs) for p, fs in enumerate(self.faces))


def build_complex(facets, vertex_count: int | None = None) -> SimplicialComplex:
    """Close the given facets under taking faces.

    Facets are iterables of 0-based vertex indices; they do not need to be
    maximal or face-closed.  Raises on empty facets, repeated vertices and
    out-of-range indices.
    """
    clean = []
    for f in facets:
        vs = tuple(sorted(f))
        if not vs:
            raise TriangulationError("empty facet")
        if len(set(vs)) != len(vs):
            raise TriangulationError(f"repeated vertex in facet {tuple(f)}")
        clean.append(vs)
    if not clean:
        raise TriangulationError("no facets given")
    top = max(v for f in clean for v in f)
    if vertex_count is None:
        vertex_count = top + 1
    for f in clean:
        for v in f:
            if v < 0 or v >= vertex_count:
                raise TriangulationError(f"vertex index {v} out of range [0, {vertex_count})")
    by_dim: dict[int, set] = {}
    for f in clean:
        for k in range(1, len(f) + 1):
            for face in combinations(f, k):
                by_dim.setdefault(k - 1, set()).add(face)
    max_dim = max(by_dim)
    faces = tuple(tuple(sorted(by_dim.get(p, set()))) for p in range(max_dim + 1))
    return SimplicialComplex(vertex_count=vertex_count, faces=faces)


def coboundary(k: SimplicialComplex, p: int) -> MatrixQ:
    """Matrix of d_p: C^p -> C^{p+1} in the lexicographic face bases.

    Entry (tau, sigma) is (-1)^i when sigma is tau with its i-th vertex
    removed (standard alternating-sign convention on ascending orderings).
    """
    rows = k.faces[p + 1] if 0 <= p + 1 <= k.dimension else ()
    cols = k.faces[p] if 0 <= p <= k.dimension else ()
    if not rows or not cols:
        return MatrixQ.zeros(len(rows), len(cols))
    index = {face: j for j, face in enumerate(cols)}
    return MatrixQ._trusted(len(rows), len(cols), (
        {index[tau[:drop] + tau[drop + 1:]]: -1 if drop & 1 else 1 for drop in range(len(tau))}
        for tau in rows))


def cochain_complex(k: SimplicialComplex) -> CochainComplex:
    dims = {p: len(k.faces[p]) for p in range(k.dimension + 1)}
    diffs = {p: coboundary(k, p) for p in range(k.dimension)}
    return CochainComplex(dims, diffs)


def betti(k: SimplicialComplex, p: int) -> int:
    """Dimension of degree-p simplicial cohomology over the rationals."""
    if p < 0 or p > k.dimension:
        raise ValueError(f"degree {p} outside [0, {k.dimension}]")
    return cohomology(cochain_complex(k), p).dim


def betti_via_chains(k: SimplicialComplex, p: int) -> int:
    """Same number computed from the chain complex (boundary matrices)."""
    bnd_p = coboundary(k, p - 1).transpose()      # C_p -> C_{p-1}
    bnd_p1 = coboundary(k, p).transpose()         # C_{p+1} -> C_p
    return (len(k.faces[p]) - bnd_p.rank()) - bnd_p1.rank()


@dataclass(frozen=True)
class CohomologyProfile:
    """Cohomology dimension vectors of an m-dimensional slice.

    ``h[p]`` is dim H^p, ``h_c[p]`` is dim H^p with compact supports, both
    of length m+1.  For closed slices h_c = h; the oriented presets follow
    the duality rule h_c[p] = h[m-p].
    """

    m: int
    h: tuple[int, ...]
    h_c: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("negative dimension")
        if len(self.h) != self.m + 1 or len(self.h_c) != self.m + 1:
            raise ValueError(f"profile arrays must have length m+1={self.m + 1}")
        if any(x < 0 for x in self.h) or any(x < 0 for x in self.h_c):
            raise ValueError("negative cohomology dimension")

    def h_at(self, p: int) -> int:
        return self.h[p] if 0 <= p <= self.m else 0

    def h_c_at(self, p: int) -> int:
        return self.h_c[p] if 0 <= p <= self.m else 0


def profile_from_triangulation(k: SimplicialComplex, name: str = "") -> CohomologyProfile:
    """Profile of a closed oriented triangulated slice (h_c = h).

    The triangulation is refused with :class:`TriangulationError` unless
    every face lies in an m-face, every (m-1)-face lies in exactly two
    m-faces, and dim H^m = dim H^0, which then holds exactly when every
    component is oriented.  Noncompact slices are not triangulated here;
    use the presets or :func:`kunneth` instead.
    """
    m = k.dimension
    for p in range(m):
        cofaces = Counter(tau[:i] + tau[i + 1:] for tau in k.faces[p + 1] for i in range(p + 2))
        for face in k.faces[p]:
            if not cofaces[face] or (p == m - 1 and cofaces[face] != 2):
                raise TriangulationError(
                    f"{p}-face {face} lies in {cofaces[face]} {p + 1}-faces: the slice is not "
                    + ("a closed manifold" if cofaces[face] else "pure"))
    dims = cohomology_dims(cochain_complex(k))
    if dims[m] != dims[0]:
        raise TriangulationError(
            f"dim H^{m} = {dims[m]} but dim H^0 = {dims[0]}: the slice is not oriented")
    h = tuple(dims[p] for p in range(m + 1))
    return CohomologyProfile(m=m, h=h, h_c=h, name=name or f"triangulated-{m}d")


PRESET_NAMES = ("point", "sphere", "torus", "euclidean")


def preset_profile(name: str, m: int) -> CohomologyProfile:
    """Stored dimension tables for the standard slices.

    sphere S^m: h = (1,0,...,0,1), h_c = h; torus T^m: h[p] = C(m,p),
    h_c = h; euclidean R^m: h = (1,0,...,0), h_c = (0,...,0,1) (the
    oriented duality rule h_c[p] = h[m-p]); point: h = h_c = (1,).
    """
    if name == "point":
        if m != 0:
            raise ValueError("the point profile has m = 0")
        return CohomologyProfile(m=0, h=(1,), h_c=(1,), name="point")
    if m < 1:
        raise ValueError(f"preset '{name}' requires m >= 1")
    if name == "sphere":
        h = tuple(1 if p in (0, m) else 0 for p in range(m + 1))
        return CohomologyProfile(m=m, h=h, h_c=h, name=f"S^{m}")
    if name == "torus":
        h = tuple(comb(m, p) for p in range(m + 1))
        return CohomologyProfile(m=m, h=h, h_c=h, name=f"T^{m}")
    if name == "euclidean":
        h = tuple(1 if p == 0 else 0 for p in range(m + 1))
        h_c = tuple(1 if p == m else 0 for p in range(m + 1))
        return CohomologyProfile(m=m, h=h, h_c=h_c, name=f"R^{m}")
    raise ValueError(f"unknown preset '{name}'; expected one of {PRESET_NAMES}")


def kunneth(a: CohomologyProfile, b: CohomologyProfile) -> CohomologyProfile:
    """Profile of a product slice: degreewise convolution of h and of h_c."""
    m = a.m + b.m
    h = tuple(sum(a.h_at(i) * b.h_at(p - i) for i in range(p + 1)) for p in range(m + 1))
    h_c = tuple(sum(a.h_c_at(i) * b.h_c_at(p - i) for i in range(p + 1)) for p in range(m + 1))
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return CohomologyProfile(m=m, h=h, h_c=h_c, name=name)


# Minimal 7-vertex triangulation of the 2-torus (every pair of the seven
# vertices is an edge; the 14 triangles fall into two orbits mod 7).
TORUS_7_FACETS = tuple(
    tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
) + tuple(
    tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)
)


def simplex_boundary_facets(n: int) -> tuple[tuple[int, ...], ...]:
    """Facets of the boundary of the n-simplex on vertices 0..n."""
    return tuple(combinations(range(n + 1), n))
