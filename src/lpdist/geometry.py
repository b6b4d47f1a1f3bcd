"""Support functions, nearest points, and Hausdorff distances for vertex sets.

Polytopes are handled purely through their vertices: the support function is
a max over vertices, the nearest-point problem is solved with Wolfe's
minimum-norm-point algorithm, and the Hausdorff distance combines the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

from .errors import EmptyPolytope, NoConvergence
from .problem import Polytope

TIE_TOL = 1e-9
WOLFE_TOL = 1e-9


@dataclass(frozen=True)
class Direction:
    """A unit vector; the norm is checked to 1e-12 at construction."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha, dtype=float).ravel()
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"direction norm {norm} is not 1 within 1e-12")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


class SphereGrid:
    """Deterministic unit directions at a given resolution.

    The constructions are chosen so that doubling the resolution refines the
    grid: dimension 2 uses equally spaced angles, dimension 3 a Fibonacci
    lattice, and higher dimensions an unscrambled Halton sequence pushed
    through the normal quantile and normalized.  Prefixes of the Halton
    stream are nested, so sup-based grid estimates improve monotonically.
    """

    def __init__(self, dim: int, resolution: int):
        if dim < 2:
            raise ValueError("sphere grids need dimension >= 2")
        if resolution < 1:
            raise ValueError("resolution must be positive")
        self.dim = dim
        self.resolution = resolution
        self.array = _grid_array(dim, resolution)
        self.array.setflags(write=False)

    @property
    def directions(self) -> list[Direction]:
        return [Direction(row) for row in self.array]

    def __len__(self):
        return self.resolution


def _grid_array(dim: int, n: int) -> np.ndarray:
    if dim == 2:
        theta = 2.0 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        i = np.arange(n)
        z = 1.0 - (2.0 * i + 1.0) / n
        golden = (1.0 + np.sqrt(5.0)) / 2.0
        phi = 2.0 * np.pi * i / golden
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    sampler = qmc.Halton(d=dim, scramble=False)
    sampler.fast_forward(1)  # skip the all-zero first point
    u = sampler.random(n)
    g = ndtri(u)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def _as_alpha(direction) -> np.ndarray:
    if isinstance(direction, Direction):
        return direction.alpha
    return np.asarray(direction, dtype=float).ravel()


def _require_vertices(polytope: Polytope) -> np.ndarray:
    if len(polytope) == 0:
        raise EmptyPolytope("polytope has no vertices")
    return polytope.vertices


def support_function(polytope: Polytope, direction) -> float:
    """sup over the polytope of <direction, x>, attained at a vertex."""
    verts = _require_vertices(polytope)
    return float(np.max(verts @ _as_alpha(direction)))


def argmax_vertex(polytope: Polytope, direction):
    """The maximizing vertex and whether it is unique within ``TIE_TOL``.

    Ties return the lexicographically smallest of the near-maximal vertices
    (vertices are stored lexicographically sorted, so that is the first hit).
    """
    verts = _require_vertices(polytope)
    values = verts @ _as_alpha(direction)
    best = values.max()
    hits = np.flatnonzero(values >= best - TIE_TOL)
    return verts[hits[0]].copy(), bool(hits.size == 1)


def _affine_minimizer(points: np.ndarray):
    """Min-norm point of the affine hull of ``points`` with its coefficients."""
    s = points.shape[0]
    gram = points @ points.T
    lhs = np.zeros((s + 1, s + 1))
    lhs[:s, :s] = gram
    lhs[:s, s] = 1.0
    lhs[s, :s] = 1.0
    rhs = np.zeros(s + 1)
    rhs[s] = 1.0
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    coeff = sol[:s]
    return coeff @ points, coeff


def row_norms(points: np.ndarray) -> np.ndarray:
    """``math.sqrt(v @ v)`` for each row ``v`` of a 2-d array, bit for bit: numpy
    runs each ``(1, m) @ (m, 1)`` product through the BLAS dot of ``v @ v``."""
    return np.sqrt((points[:, None, :] @ points[:, :, None])[:, 0, 0])


def _wolfe_budget(n: int, dim: int) -> int:
    """Major iterations ``min_norm_point`` may take on ``n`` vertices in ``dim`` dimensions."""
    return 10 * n * max(dim, 1)


def min_norm_point(polytope: Polytope, z):
    """Nearest point of the polytope to ``z`` by Wolfe's algorithm.

    Returns ``(point, distance)``.  Termination requires the duality gap
    ``<x-z, x-v>`` maximized over vertices ``v`` to fall below
    ``WOLFE_TOL``; exceeding ``_wolfe_budget`` raises ``NoConvergence``.
    """
    verts = _require_vertices(polytope)
    z = np.asarray(z, dtype=float).ravel()
    if z.shape != (polytope.dim,):
        raise ValueError(f"query point has dimension {z.size}, expected {polytope.dim}")
    q = verts - z
    budget = _wolfe_budget(len(polytope), polytope.dim)

    start = int(np.argmin(np.einsum("ij,ij->i", q, q)))
    corral = [start]
    coeff = np.array([1.0])
    x = q[start].copy()

    for _ in range(budget):
        scores = q @ x
        gap = float(x @ x - scores.min())
        if gap <= WOLFE_TOL:
            return x + z, float(np.linalg.norm(x))
        new = int(np.argmin(scores))
        if new not in corral:
            corral.append(new)
            coeff = np.append(coeff, 0.0)
        for _minor in range(2 * len(corral) + 2):
            y, mu = _affine_minimizer(q[corral])
            if mu.min() >= -1e-12:
                coeff, x = mu, y
                break
            shrink = coeff - mu
            steps = [coeff[i] / shrink[i] for i in range(len(mu)) if shrink[i] > 1e-15]
            theta = min(1.0, min(steps)) if steps else 1.0
            coeff = (1.0 - theta) * coeff + theta * mu
            keep = coeff > 1e-12
            if keep.all():
                keep[int(np.argmin(coeff))] = False
            corral = [corral[i] for i in range(len(corral)) if keep[i]]
            coeff = coeff[keep]
            coeff = coeff / coeff.sum()
            x = coeff @ q[corral]
    raise NoConvergence(f"minimum-norm point did not converge in {budget} iterations")


def hausdorff(p1: Polytope, p2: Polytope) -> float:
    """Exact Hausdorff distance between two vertex-described polytopes.

    The farthest point of a polytope from a convex set is a vertex, so the
    distance is a max of vertex-to-polytope nearest distances both ways.
    """
    v1 = _require_vertices(p1)
    v2 = _require_vertices(p2)
    if len(v1) == 1 or len(v2) == 1:  # from a point z: the largest |v - z|
        return float(row_norms(v1 - v2).max())
    d12 = max(min_norm_point(p2, v)[1] for v in v1)
    d21 = max(min_norm_point(p1, v)[1] for v in v2)
    return max(d12, d21)
