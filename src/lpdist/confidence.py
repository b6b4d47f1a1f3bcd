"""Confidence sets for LP solutions built from rhs confidence regions.

A region for the scaled rhs noise is pushed through the solved basis: the
image of ``G`` is the basic-solution displacement ``x(I;G)``, and the
confidence set collects ``x_hat - image/rate``.  Coordinates off the basis
are pinned, which is what produces singleton intervals in degenerate
problems.

Each region class declares its spec keys and maps itself through a basis
block into an image with ``accepts``, ``interval`` and ``to_dict``; a new
region kind is one such class plus its entry in ``REGIONS``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problem
from .errors import SingularCovariance
from .problem import Basis, StandardLp, build_kind, check_support, spec_to_dict
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
    spec_keys = {kind: (("sigma", "level"), ("support_indices", "q"))}
    to_dict = spec_to_dict

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

    def map(self, a_basis: np.ndarray, lu_piv) -> "EllipsoidImage":
        return EllipsoidImage(self, a_basis, lu_piv)


class BoxRegion:
    kind = "box"
    spec_keys = {kind: (("lower", "upper"), ("coverage_target",))}
    to_dict = spec_to_dict

    def __init__(self, lower, upper, coverage_target: Optional[float] = None):
        self.lower = np.array(lower, dtype=float)
        self.upper = np.array(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("bounds must be vectors of equal length")
        if (self.lower > 0).any() or (self.upper < 0).any():
            raise ValueError("box must contain the origin")
        self.coverage_target = None if coverage_target is None else float(coverage_target)

    def map(self, a_basis: np.ndarray, lu_piv) -> "BoxImage":
        return BoxImage(self, a_basis, lu_piv)


class SegmentFamilyRegion:
    """Segment {t * direction: |t| <= half_width}, for rank-one noise laws."""

    kind = "segment"
    spec_keys = {kind: (("direction", "half_width"), ("coverage_target",))}
    to_dict = spec_to_dict

    def __init__(self, direction, half_width: float, coverage_target: Optional[float] = None):
        self.direction = np.array(direction, dtype=float)
        if self.direction.ndim != 1 or not np.linalg.norm(self.direction) > 0:
            raise ValueError("direction must be a nonzero vector")
        self.half_width = float(half_width)
        if self.half_width < 0:
            raise ValueError("half_width must be nonnegative")
        self.coverage_target = None if coverage_target is None else float(coverage_target)

    def map(self, a_basis: np.ndarray, lu_piv) -> "SegmentImage":
        return SegmentImage(self, a_basis, lu_piv)


REGIONS = {name: cls for cls in (EllipsoidRegion, BoxRegion, SegmentFamilyRegion)
           for name in cls.spec_keys}


def region_from_dict(data: dict):
    """Build a region from a JSON-shaped description keyed by ``kind``."""
    return build_kind(REGIONS, data, "region")


class EllipsoidImage:
    """``t_matrix`` maps the unit ball onto the image; ``quadratic`` is the
    basis-coordinate form A_I' Sigma^{-1} A_I, only for full-support
    ellipsoids."""

    def __init__(self, region: EllipsoidRegion, a_basis: np.ndarray, lu_piv):
        self.region, self.a_basis = region, a_basis
        k = len(a_basis)
        sup = region.support_indices
        r = region.sigma.shape[0]
        if sup is None and r != k:
            raise ValueError("full-support covariance must be k x k")
        check_support(sup, k)
        try:
            self.chol = np.linalg.cholesky(region.sigma)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance("covariance is not positive definite") from exc
        pad = np.zeros((k, r))
        pad[list(sup) if sup is not None else range(k), range(r)] = 1.0
        self.t_matrix = problem.solve_lu(lu_piv, pad @ self.chol)
        self.quadratic = None
        if r == k:
            inv_sigma = np.linalg.inv(region.sigma)
            self.quadratic = a_basis.T @ inv_sigma @ a_basis
        self.q = region.q
        # the noise's coordinates, and a mask of any others
        self.support = slice(None) if sup is None else list(sup)
        off = np.ones(k, dtype=bool)
        off[self.support] = False
        self.off_support = off if off.any() else None

    def accepts(self, g: np.ndarray, tol: float) -> np.ndarray:
        u = _forward_substitution(self.chol, g[:, self.support])
        inside = problem.ordered_dot(u, u) <= self.q + tol
        if self.off_support is not None:
            inside &= np.abs(g[:, self.off_support]).max(axis=1) <= tol
        return inside

    def interval(self, pos: int) -> tuple:
        half = float(np.sqrt(self.q)) * float(np.linalg.norm(self.t_matrix[pos]))
        return (-half, half)

    def to_dict(self) -> dict:
        quadratic = {} if self.quadratic is None else {"quadratic": self.quadratic.tolist()}
        return {"q": self.q, **quadratic, "generator": self.t_matrix.tolist()}


class BoxImage:
    def __init__(self, region: BoxRegion, a_basis: np.ndarray, lu_piv):
        self.region, self.a_basis = region, a_basis
        k = len(a_basis)
        if region.lower.shape != (k,):
            raise ValueError("box bounds must have one entry per constraint row")
        self.inv_basis = problem.solve_lu(lu_piv, np.eye(k))

    def accepts(self, g: np.ndarray, tol: float) -> np.ndarray:
        region = self.region
        return (g >= region.lower - tol).all(axis=1) & (g <= region.upper + tol).all(axis=1)

    def interval(self, pos: int) -> tuple:
        row = self.inv_basis[pos]
        lower, upper = self.region.lower, self.region.upper
        return (float(np.where(row > 0, row * lower, row * upper).sum()),
                float(np.where(row > 0, row * upper, row * lower).sum()))

    def to_dict(self) -> dict:
        return {"inverse_basis": self.inv_basis.tolist()}


class SegmentImage:
    """``v_seg`` is the image of the segment's direction."""

    def __init__(self, region: SegmentFamilyRegion, a_basis: np.ndarray, lu_piv):
        self.region, self.a_basis = region, a_basis
        if region.direction.shape != (len(a_basis),):
            raise ValueError("direction must have one entry per constraint row")
        self.v_seg = problem.solve_lu(lu_piv, region.direction)
        self.half_width = region.half_width

    def accepts(self, g: np.ndarray, tol: float) -> np.ndarray:
        direction = self.region.direction
        t = problem.ordered_dot(g, direction) / float(direction @ direction)
        on_line = np.abs(g - t[:, None] * direction).max(axis=1) <= tol
        return on_line & (np.abs(t) <= self.half_width + tol)

    def interval(self, pos: int) -> tuple:
        half = self.half_width * abs(float(self.v_seg[pos]))
        return (-half, half)

    def to_dict(self) -> dict:
        return {"generator": self.v_seg.tolist(), "half_width": self.half_width}


def map_region(lp: StandardLp, I: Basis, region):
    """Represent {x(I;G): G in region} for membership and projection tests.

    This is the region's image under ``g -> A_I^{-1} g``: ``accepts(g,
    tol)`` tests each row of an ``(N, k)`` block of realized rhs values
    and returns a mask, ``interval(pos)`` bounds basis
    coordinate ``pos`` and ``to_dict()`` is what ``--mapped-out`` writes.
    It also gets ``basis`` and ``off``, the mask of the non-basic columns.
    """
    cols = list(I.indices)
    image = region.map(lp.A[:, cols], problem.cached_factors(lp, I.indices))
    image.basis, image.off = I, np.ones(lp.m, dtype=bool)
    image.off[cols] = False
    return image


@dataclass
class ConfidenceSet:
    center: np.ndarray
    rate: float
    mapped: object  # the image ``map_region`` returns


def confidence_set(result: SolveResult, rate: float, mapped) -> ConfidenceSet:
    if not rate > 0:
        raise ValueError("rate must be positive")
    return ConfidenceSet(center=np.array(result.x_hat, dtype=float), rate=float(rate),
                         mapped=mapped)


def contains(cs: ConfidenceSet, x: np.ndarray) -> bool:
    """Exact membership: rate*(center - x) must land in the mapped image."""
    return bool(contains_rows(cs.mapped, cs.rate, cs.center[None, :], x)[0])


def contains_rows(mapped, rate: float, centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``contains`` for the confidence sets with image ``mapped`` and
    ``rate`` centred at each row of ``centers``, as a mask.

    Every sum runs over a row's own entries in a fixed order, so a row's
    answer does not depend on the block it came in.
    """
    y = rate * (centers - np.asarray(x, dtype=float))
    tol = problem.residual_tol(rate)
    g = problem.ordered_dot(y[:, None, mapped.basis.indices], mapped.a_basis)  # A_I y_I
    inside = mapped.accepts(g, tol)
    if mapped.off.any():
        inside &= np.abs(y[:, mapped.off]).max(axis=1) <= tol
    return inside


def _forward_substitution(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``solve(lower, row)`` for each row of ``rhs``, with ``lower`` lower
    triangular; each row's entries are computed in index order."""
    u = np.empty_like(rhs)
    for i in range(len(lower)):
        u[:, i] = (rhs[:, i] - problem.ordered_dot(u[:, :i], lower[i, :i])
                   if i else rhs[:, i]) / lower[i, i]
    return u


def coordinate_interval(cs: ConfidenceSet, i: int) -> tuple:
    """Closed projection of the confidence set onto coordinate ``i``."""
    center = float(cs.center[i])
    cols = cs.mapped.basis.indices
    if i not in cols:
        return (center, center)
    lo, hi = cs.mapped.interval(cols.index(i))
    return (center - hi / cs.rate, center - lo / cs.rate)
