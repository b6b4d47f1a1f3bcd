"""Confidence sets for LP solutions built from rhs confidence regions.

A region for the scaled rhs noise is pushed through the selection basis of
the reported vertex (``confidence_rows``, which ``lpdist confidence`` and
coverage both read): the image of ``G`` is the basic-solution displacement
``x(I;G)``, and the confidence set collects ``x_hat - image/rate``.
Coordinates off the basis are pinned, which is what produces singleton
intervals in degenerate problems.

A region kind is one class plus its entry in ``REGIONS``: spec keys,
``generator(k)``, ``accepts``, ``interval`` and ``mapped_fields``.  Its
image through a basis is one ``MappedRegion``, ``A_I^{-1}`` times the
generator.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import problem
from .errors import InstanceTooLarge, LpError, SingularBasis
from .problem import (Basis, StandardLp, build_kind, check_support, factor_covariance,
                      greedy_columns, group_rows, spec_to_dict, support)
from .quantiles import chi_square_quantile
from .simplex import solve_block


class EllipsoidRegion:
    """Open ellipsoid {g: g' Sigma^{-1} g < q} for the rhs noise law.

    ``support_indices`` restricts the noise to a coordinate subspace (the
    covariance is given on those coordinates only and extended by zeros),
    which is how network experiments put noise on supply rows but not on
    capacity rows.  The generator maps the unit ball onto the region.
    """

    kind = "ellipsoid"
    spec_keys = {kind: (("sigma", "level"), ("support_indices", "q"))}
    to_dict = spec_to_dict

    def __init__(self, sigma, level: float, support_indices=None, q: Optional[float] = None):
        self.sigma, self.chol, self.support_indices = factor_covariance(sigma, support_indices)
        self.level = float(level)
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0,1)")
        self.coverage_target = self.level
        self.q = float(q) if q is not None else chi_square_quantile(self.level, self.sigma.shape[0])
        self.support = slice(None) if support_indices is None else list(self.support_indices)

    def generator(self, k: int) -> np.ndarray:
        if self.support_indices is None and len(self.sigma) != k:
            raise ValueError("full-support covariance must be k x k")
        check_support(self.support_indices, k)
        return np.eye(k)[:, self.support] @ self.chol

    def accepts(self, g: np.ndarray, tol: np.ndarray) -> np.ndarray:
        u = _forward_substitution(self.chol, g[:, self.support])
        inside = problem.ordered_dot(u, u) <= self.q + tol
        if self.support_indices is not None:
            rest = np.abs(g)
            rest[:, self.support] = 0.0
            inside &= rest.max(axis=1) <= tol
        return inside

    def interval(self, row: np.ndarray) -> tuple:
        half = float(np.sqrt(self.q)) * float(np.linalg.norm(row))
        return (-half, half)

    def mapped_fields(self, mapped: MappedRegion) -> dict:
        """With every row in the support, ``quadratic`` is A_I' Sigma^{-1} A_I."""
        quadratic = {}
        if len(self.sigma) == len(mapped.image):
            a_support = mapped.a_basis[self.support]
            quadratic["quadratic"] = (a_support.T @ np.linalg.inv(self.sigma) @ a_support).tolist()
        return {"q": self.q, **quadratic, "generator": mapped.image.tolist()}


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

    def generator(self, k: int) -> np.ndarray:
        if self.lower.shape != (k,):
            raise ValueError("box bounds must have one entry per constraint row")
        return np.eye(k)

    def accepts(self, g: np.ndarray, tol: np.ndarray) -> np.ndarray:
        tol = tol[:, None]
        return (g >= self.lower - tol).all(axis=1) & (g <= self.upper + tol).all(axis=1)

    def interval(self, row: np.ndarray) -> tuple:
        lower, upper = self.lower, self.upper
        return (float(np.where(row > 0, row * lower, row * upper).sum()),
                float(np.where(row > 0, row * upper, row * lower).sum()))

    def mapped_fields(self, mapped: MappedRegion) -> dict:
        return {"inverse_basis": mapped.image.tolist()}


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

    def generator(self, k: int) -> np.ndarray:
        if self.direction.shape != (k,):
            raise ValueError("direction must have one entry per constraint row")
        return self.direction[:, None]

    def accepts(self, g: np.ndarray, tol: np.ndarray) -> np.ndarray:
        direction = self.direction
        t = problem.ordered_dot(g, direction) / float(direction @ direction)
        on_line = np.abs(g - t[:, None] * direction).max(axis=1) <= tol
        return on_line & (np.abs(t) <= self.half_width + tol)

    def interval(self, row: np.ndarray) -> tuple:
        half = self.half_width * abs(float(row[0]))
        return (-half, half)

    def mapped_fields(self, mapped: MappedRegion) -> dict:
        return {"generator": mapped.image[:, 0].tolist(), "half_width": self.half_width}


REGIONS = {name: cls for cls in (EllipsoidRegion, BoxRegion, SegmentFamilyRegion)
           for name in cls.spec_keys}


def region_from_dict(data: dict):
    """Build a region from a JSON-shaped description keyed by ``kind``."""
    return build_kind(REGIONS, data, "region")


class MappedRegion:
    """``region`` through ``basis``: ``image`` is A_I^{-1} times its
    generator, ``a_basis`` is A_I and ``columns`` lists the basis's columns,
    then the others."""

    def __init__(self, region, basis: Basis, a_basis: np.ndarray, columns: np.ndarray,
                 image: np.ndarray):
        self.region, self.basis, self.a_basis, self.columns, self.image = (
            region, basis, a_basis, columns, image)
        self.accepts = region.accepts  # bound once, as contains_rows calls it

    def interval(self, pos: int) -> tuple:
        return self.region.interval(self.image[pos])

    def to_dict(self) -> dict:
        return self.region.mapped_fields(self)


def map_region(lp: StandardLp, I: Basis, region) -> MappedRegion:
    """Represent {x(I;G): G in region} for membership and projection tests.

    This is the region's image under ``g -> A_I^{-1} g``: ``accepts(g,
    tol)`` tests each row of an ``(N, k)`` block of realized rhs values
    within its entry of the ``(N,)`` ``tol`` and returns a mask,
    ``interval(pos)`` bounds basis coordinate ``pos`` and ``to_dict()``
    is what ``--mapped-out`` writes.  The basis is factored, through the
    program's cache, before the region's checks.
    """
    cols = list(I.indices)
    factors = problem.cached_factors(lp, I.indices)
    off = np.ones(lp.m, dtype=bool)
    off[cols] = False
    columns = np.concatenate([cols, np.flatnonzero(off)])
    image = problem.solve_lu(factors, region.generator(len(cols)))
    return MappedRegion(region, I, lp.A[:, cols], columns, image)


def selection_basis(lp: StandardLp, x: np.ndarray) -> Basis:
    """Deterministic reporting basis: the support of ``x`` completed by the
    smallest-index columns that keep the block invertible.

    Any completion is an optimal basis when ``x`` is an optimal basic
    solution, and for a nondegenerate solution this is the only basis; the
    greedy completion pins down which one is used on degenerate replicates.
    The completion depends on the support only and is kept in the program's
    basis cache.
    """
    return _selection(lp, tuple(sorted(support(x))))


def _selection(lp: StandardLp, sup: tuple) -> Basis:
    """``selection_basis`` of a point with support ``sup`` (sorted)."""
    return lp.basis_cache.get(("selection", sup), lambda: _complete_support(lp, sup))


def _complete_support(lp: StandardLp, sup: tuple) -> Basis:
    chosen = greedy_columns(lp.A, sup, lp.rank_tol)
    if chosen is None:
        raise SingularBasis("support columns are linearly dependent")
    if len(chosen) < lp.k:
        raise SingularBasis("could not complete the support to a basis")
    return Basis(tuple(chosen))


def confidence_rows(lp: StandardLp, region, rhs: np.ndarray, picks: np.ndarray) -> tuple:
    """``(centers, which, mapped, errors)``: the confidence set of ``lp``'s
    solution at each row of the ``(N, k)`` block ``rhs``, at any rate.  Row
    ``i`` is centred at row ``i`` of ``centers`` and its set is ``region``
    through that vertex's ``selection_basis``, ``mapped[which[i]]``; a row
    with no set has ``which`` -1 and its ``LpError`` in ``errors``.

    Practical solvers select arbitrarily among multiply-optimal vertices;
    the centre models that selection canonically: a row with ``t`` distinct
    optimal vertices reports vertex ``floor(u t)`` of them, ``u`` its entry
    of ``picks``, in the family order of their first optimal bases.  Above
    ``ENUM_CAP``, where no optimal set is enumerated, it is the vertex
    ``solve`` gives (``simplex.solve_block``).  ``lp.at_b`` keeps each
    ``MappedRegion`` under its basis and the region's id, with the region,
    so that ``map_region`` runs once per selection basis and region.
    """
    sets = problem.optimal_rows(lp, rhs)
    if any(isinstance(exc, InstanceTooLarge) for exc in sets.errors.values()):
        sets = solve_block(lp, rhs)
    centers, errors = sets.points.copy(), sets.errors
    for rows, kept, *_ in sets.groups:
        centers[rows] = kept[np.arange(len(rows)), (picks[rows] * kept.shape[1]).astype(np.intp)]
    which = np.full(len(rhs), -1, dtype=np.intp)
    solved = np.ones(len(rhs), dtype=bool)
    solved[list(errors)] = False
    mapped = []
    for mask, at in group_rows(np.abs(centers[solved]) > problem.FEAS_TOL, solved.nonzero()[0]):
        try:
            basis = _selection(lp, tuple(mask.nonzero()[0].tolist()))
            key = ("mapped", basis.indices, id(region))
            if key not in lp.at_b:
                lp.at_b[key] = (region, map_region(lp, basis, region))
        except LpError as exc:
            errors.update(dict.fromkeys(at.tolist(), exc))
            continue
        which[at] = len(mapped)
        mapped.append(lp.at_b[key][1])
    return centers, which, mapped, errors


class RowBases(NamedTuple):
    """A basis per row of a block, as ``contains_rows`` reads it: the
    region's ``accepts`` and each row's ``columns`` ``(N, m)`` and
    ``a_basis`` ``(N, k, k)``.  ``of`` puts row ``i`` in the basis of
    ``mapped[which[i]]``, each entry a ``MappedRegion`` of one region, and
    ``take`` picks rows."""

    accepts: Callable
    columns: np.ndarray
    a_basis: np.ndarray

    @classmethod
    def of(cls, mapped: Sequence[MappedRegion], which: np.ndarray) -> RowBases:
        return cls(mapped[0].accepts, np.array([m.columns for m in mapped])[which],
                   np.array([m.a_basis for m in mapped])[which])

    def take(self, rows: np.ndarray) -> RowBases:
        return RowBases(self.accepts, self.columns[rows], self.a_basis[rows])


@dataclass
class ConfidenceSet:
    center: np.ndarray
    rate: float
    mapped: MappedRegion

    def __post_init__(self):
        self.rate = float(self.rate)
        if not 0.0 < self.rate < np.inf:
            raise ValueError(f"rate must be positive and finite, not {self.rate}")


def contains(cs: ConfidenceSet, x: np.ndarray) -> bool:
    """Exact membership: rate*(center - x) must land in the mapped image."""
    return bool(contains_rows(cs.mapped, cs.rate, cs.center[None, :], x)[0])


def contains_rows(bases, rate, centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``contains`` for the confidence sets centred at each row of
    ``centers``, as a mask.  ``bases`` is one ``MappedRegion``, whose basis
    serves every row, or a ``RowBases`` of each row's own basis; ``rate``
    is one rate for every row or one per row, ``x`` one point or one per
    row, and a row's tolerance is ``residual_tol`` of its own.

    Every sum runs over a row's own entries in a fixed order, so a row's
    answer does not depend on the block it came in.
    """
    rate = np.full(len(centers), rate, dtype=float)[:, None]
    y = rate * (centers - np.asarray(x, dtype=float))
    tol = problem.residual_tol(rate, axis=1)
    k = bases.a_basis.shape[-1]
    # each row's basic coordinates y_I, then its others, which must vanish
    y = y.take(bases.columns + y.shape[1] * np.arange(len(y))[:, None])
    g = problem.ordered_dot(y[:, None, :k], bases.a_basis)  # A_I y_I
    return bases.accepts(g, tol) & (np.abs(y[:, k:]).max(axis=1, initial=0.0) <= tol)


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
