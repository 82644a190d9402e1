"""Closed triangulated 3-slices generated by the benchmark, with their known
Betti numbers, and the benchmark's own face count and support-class rule.

Nothing here imports the program: these are the references the program's
``derham`` reports are checked against.
"""

from __future__ import annotations

import random
from itertools import combinations


def boundary_of_simplex(m: int) -> list[tuple[int, ...]]:
    """Facets of the boundary of the (m+1)-simplex: a triangulated S^m."""
    return list(combinations(range(m + 2), m + 1))


def cycle(k: int) -> list[tuple[int, ...]]:
    """Edges of the k-gon, a triangulated circle (k >= 3)."""
    return [tuple(sorted((i, (i + 1) % k))) for i in range(k)]


def staircase_product(a_facets, b_facets, b_vertices: int) -> list[tuple[int, ...]]:
    """Staircase triangulation of |A| x |B|; vertex (a, b) becomes a*|B| + b.

    Each product of facets s x t is cut into the simplices of the monotone
    lattice paths from (s0, t0) to (s_p, t_q), which match on shared faces
    because both factors keep their vertex order.
    """
    out = []
    for s in a_facets:
        for t in b_facets:
            p, q = len(s) - 1, len(t) - 1
            for a_steps in combinations(range(p + q), p):
                i = j = 0
                verts = [s[0] * b_vertices + t[0]]
                for step in range(p + q):
                    if step in a_steps:
                        i += 1
                    else:
                        j += 1
                    verts.append(s[i] * b_vertices + t[j])
                out.append(tuple(verts))
    return out


def relabel(facets, vertices: int, rng: random.Random) -> list[list[int]]:
    """Apply a random permutation of the vertex labels."""
    perm = list(range(vertices))
    rng.shuffle(perm)
    return [sorted(perm[v] for v in f) for f in facets]


# name -> (facets, vertex count, Betti numbers of the manifold)
def slice_catalogue() -> dict[str, tuple[list[tuple[int, ...]], int, tuple[int, ...]]]:
    s2 = boundary_of_simplex(2)
    return {
        "S3": (boundary_of_simplex(3), 5, (1, 0, 0, 1)),
        "S2xS1_k4": (staircase_product(s2, cycle(4), 4), 16, (1, 1, 1, 1)),
        "S2xS1_k5": (staircase_product(s2, cycle(5), 5), 20, (1, 1, 1, 1)),
    }


def f_vector(facets) -> tuple[int, ...]:
    """Face numbers of the closure of ``facets`` (counted here, not by the program)."""
    faces: dict[int, set] = {}
    for f in facets:
        f = tuple(sorted(f))
        for k in range(1, len(f) + 1):
            faces.setdefault(k - 1, set()).update(combinations(f, k))
    return tuple(len(faces[d]) for d in range(max(faces) + 1))


def euler_characteristic(fv) -> int:
    return sum((-1) ** d * n for d, n in enumerate(fv))


SUPPORT_ROWS = ("unrestricted", "compact", "ret", "adv", "pc", "fc", "sc", "tc",
                "wave_sc", "wave_unrestricted")


def support_rows(h, h_c, n: int) -> dict[str, list[int]]:
    """Cohomology rows of R x Sigma (dimension n) for every support class.

    With slice cohomology h and compactly supported slice cohomology h_c:
    unrestricted H^p = h^p; compact H^p = h_c^{p-1}; spacelike compact
    H^p = h_c^p; timelike compact H^p = h^{p-1}; retarded, advanced, past
    and future compact vanish; the wave-solution rows are h_c^p + h_c^{p-1}
    (sc) and h^p + h^{p-1} (unrestricted).
    """
    at = lambda v, p: v[p] if 0 <= p < len(v) else 0
    degrees = range(n + 1)
    zero = [0] * (n + 1)
    return {
        "unrestricted": [at(h, p) for p in degrees],
        "compact": [at(h_c, p - 1) for p in degrees],
        "ret": zero, "adv": zero, "pc": zero, "fc": zero,
        "sc": [at(h_c, p) for p in degrees],
        "tc": [at(h, p - 1) for p in degrees],
        "wave_sc": [at(h_c, p) + at(h_c, p - 1) for p in degrees],
        "wave_unrestricted": [at(h, p) + at(h, p - 1) for p in degrees],
    }
