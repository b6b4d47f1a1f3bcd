"""Confidence sets for LP solutions built from rhs confidence regions.

A region for the scaled rhs noise is pushed through the solved basis: the
image of ``G`` is the basic-solution displacement ``x(I;G)``, and the
confidence set collects ``x_hat - image/rate``.  Coordinates off the basis
are pinned, which is what produces singleton intervals in degenerate
problems.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import SingularCovariance
from .geometry import min_norm_point
from .problem import (Basis, StandardLp, basic_solution, build_from_spec, factor_columns,
                      json_object, optimal_vertices)
from .quantiles import chi_square_quantile
from .simplex import SolveResult


class EllipsoidRegion:
    """Open ellipsoid {g: g' Sigma^{-1} g < q} for the rhs noise law.

    ``support_indices`` restricts the noise to a coordinate subspace (the
    covariance is given on those coordinates only and extended by zeros),
    which is how network experiments put noise on supply rows but not on
    capacity rows.
    """

    kind = "ellipsoid"

    def __init__(self, sigma, level: float, support_indices=None, q: Optional[float] = None):
        self.sigma = np.array(sigma, dtype=float)
        if self.sigma.ndim != 2 or self.sigma.shape[0] != self.sigma.shape[1]:
            raise ValueError("covariance must be a square matrix")
        self.level = float(level)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0,1)")
        self.coverage_target = self.level
        self.support_indices = None
        if support_indices is not None:
            self.support_indices = tuple(int(i) for i in support_indices)
            if len(self.support_indices) != self.sigma.shape[0]:
                raise ValueError("support size does not match the covariance")
        self.q = float(q) if q is not None else chi_square_quantile(self.level, self.sigma.shape[0])


class BoxRegion:
    kind = "box"

    def __init__(self, lower, upper, coverage_target: Optional[float] = None):
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be vectors of equal length")
        if (self.lower > 0).any() or (self.upper < 0).any():
            raise ValueError("box must contain the origin")
        self.coverage_target = None if coverage_target is None else float(coverage_target)


class SegmentFamilyRegion:
    """Segment {t * direction: |t| <= half_width}, for rank-one noise laws."""

    kind = "segment"

    def __init__(self, direction, half_width: float, coverage_target: Optional[float] = None):
        self.direction = np.array(direction, dtype=float)
        if self.direction.ndim != 1 or not np.linalg.norm(self.direction) > 0:
            raise ValueError("direction must be a nonzero vector")
        self.half_width = float(half_width)
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")
        self.coverage_target = None if coverage_target is None else float(coverage_target)


def region_from_dict(data: dict):
    """Build a region from a JSON-shaped description keyed by ``kind``."""
    kind = json_object(data, "region spec").get("kind")
    if kind == "ellipsoid":
        return build_from_spec(EllipsoidRegion, data, "ellipsoid region", ("sigma", "level"),
                               ("support_indices", "q"))
    if kind == "segment":
        return build_from_spec(SegmentFamilyRegion, data, "segment region",
                               ("direction", "half_width"), ("coverage_target",))
    if kind == "box":
        return build_from_spec(BoxRegion, data, "box region", ("lower", "upper"),
                               ("coverage_target",))
    raise ValueError(f"unknown region kind {kind!r}")


@dataclass
class MappedSet:
    """Image of an rhs region under G -> x(I;G), plus test machinery.

    ``quadratic`` is the basis-coordinate quadratic form A_I' Sigma^{-1} A_I
    and is only available for full-support ellipsoids.
    """

    basis: Basis
    kind: str
    region: object
    a_basis: np.ndarray
    dim: int
    t_matrix: Optional[np.ndarray] = None
    chol: Optional[np.ndarray] = None
    q: Optional[float] = None
    quadratic: Optional[np.ndarray] = None
    inv_basis: Optional[np.ndarray] = None
    v_seg: Optional[np.ndarray] = None
    half_width: Optional[float] = None


def map_region(lp: StandardLp, I: Basis, region) -> MappedSet:
    """Represent {x(I;G): G in region} for membership and projection tests."""
    cols = list(I.indices)
    factor_columns(lp, cols)
    a_basis = lp.A[:, cols].copy()
    k = lp.k
    if region.kind == "ellipsoid":
        sup = region.support_indices
        r = region.sigma.shape[0]
        if sup is None and r != k:
            raise ValueError("full-support covariance must be k x k")
        try:
            chol = np.linalg.cholesky(region.sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance is not positive definite") from exc
        pad = np.zeros((k, r))
        pad[list(sup) if sup is not None else range(k), range(r)] = 1.0
        t_matrix = np.linalg.solve(a_basis, pad @ chol)
        quadratic = None
        if r == k:
            inv_sigma = np.linalg.inv(region.sigma)
            quadratic = a_basis.T @ inv_sigma @ a_basis
        return MappedSet(basis=I, kind="ellipsoid", region=region, a_basis=a_basis,
                         dim=lp.m, t_matrix=t_matrix, chol=chol, q=region.q,
                         quadratic=quadratic)
    if region.kind == "box":
        if region.lower.shape != (k,):
            raise ValueError("box bounds must have one entry per constraint row")
        inv_basis = np.linalg.solve(a_basis, np.eye(k))
        return MappedSet(basis=I, kind="box", region=region, a_basis=a_basis,
                         dim=lp.m, inv_basis=inv_basis)
    if region.kind == "segment":
        if region.direction.shape != (k,):
            raise ValueError("direction must have one entry per constraint row")
        v_seg = np.linalg.solve(a_basis, region.direction)
        return MappedSet(basis=I, kind="segment", region=region, a_basis=a_basis,
                         dim=lp.m, v_seg=v_seg, half_width=region.half_width)
    raise ValueError(f"unknown region kind {region.kind!r}")


@dataclass
class ConfidenceSet:
    center: np.ndarray
    rate: float
    mapped: MappedSet


def confidence_set(result: SolveResult, rate: float, mapped: MappedSet) -> ConfidenceSet:
    if not rate > 0:
        raise ValueError("rate must be positive")
    return ConfidenceSet(center=np.array(result.x_hat, dtype=float), rate=float(rate),
                         mapped=mapped)


def _region_accepts(mapped: MappedSet, g: np.ndarray, tol: float) -> bool:
    """Closed membership test of a realized rhs value in the region."""
    if mapped.kind == "ellipsoid":
        region = mapped.region
        if region.support_indices is not None:
            mask = np.ones(len(g), dtype=bool)
            mask[list(region.support_indices)] = False
            if mask.any() and np.abs(g[mask]).max() > tol:
                return False
            g_sup = g[list(region.support_indices)]
        else:
            g_sup = g
        u = solve_triangular(mapped.chol, g_sup, lower=True, check_finite=False)
        return float(u @ u) <= mapped.q + tol
    if mapped.kind == "box":
        region = mapped.region
        return bool((g >= region.lower - tol).all() and (g <= region.upper + tol).all())
    direction = mapped.region.direction
    t = float(g @ direction) / float(direction @ direction)
    if np.abs(g - t * direction).max() > tol:
        return False
    return abs(t) <= mapped.half_width + tol


def contains(cs: ConfidenceSet, x: np.ndarray) -> bool:
    """Exact membership: rate*(center - x) must land in the mapped image."""
    x = np.asarray(x, dtype=float)
    y = cs.rate * (cs.center - x)
    tol = 1e-7 * (1.0 + cs.rate)
    cols = list(cs.mapped.basis.indices)
    off = np.ones(cs.mapped.dim, dtype=bool)
    off[cols] = False
    if off.any() and np.abs(y[off]).max() > tol:
        return False
    g = cs.mapped.a_basis @ y[cols]
    return _region_accepts(cs.mapped, g, tol)


def coordinate_interval(cs: ConfidenceSet, i: int) -> tuple:
    """Closed projection of the confidence set onto coordinate ``i``."""
    center = float(cs.center[i])
    cols = cs.mapped.basis.indices
    if i not in cols:
        return (center, center)
    pos = cols.index(i)
    if cs.mapped.kind == "ellipsoid":
        half = float(np.sqrt(cs.mapped.q)) * float(np.linalg.norm(cs.mapped.t_matrix[pos]))
    elif cs.mapped.kind == "segment":
        half = cs.mapped.half_width * abs(float(cs.mapped.v_seg[pos]))
    else:
        row = cs.mapped.inv_basis[pos]
        region = cs.mapped.region
        hi = float(np.where(row > 0, row * region.upper, row * region.lower).sum())
        lo = float(np.where(row > 0, row * region.lower, row * region.upper).sum())
        return (center - hi / cs.rate, center - lo / cs.rate)
    return (center - half / cs.rate, center + half / cs.rate)


def project_to_optimal(lp: StandardLp, I: Basis) -> np.ndarray:
    """Closest optimal solution to the basic solution x(I;b).

    This is the coverage oracle's target: it needs the true optimal set and
    therefore only makes sense in simulations where ``lp`` holds the truth.
    """
    anchor = basic_solution(lp, I).x
    polytope, _ = optimal_vertices(lp)
    point, _ = min_norm_point(polytope, anchor)
    return point
