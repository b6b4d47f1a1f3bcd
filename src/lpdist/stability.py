"""Perturbation-stability constants for the right-hand side of an LP.

Everything here is brute force over bases, which is the point: these
quantities certify how far ``b`` may move before the combinatorial structure
(feasible bases, optimal bases, supports) can change, and at desk scale we
can compute them exactly by enumeration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, NonFiniteData, NotSlater
from .geometry import hausdorff
from . import problem
from .problem import StandardLp, basic_points, optimal_vertices, program_family


@dataclass(frozen=True)
class StabilityReport:
    delta_b0: float
    delta_b1: float
    tau: float
    c1: float
    c2: float
    delta_star: float


def stability_report(lp: StandardLp, slater_point: np.ndarray) -> StabilityReport:
    """Compute the perturbation radii and Lipschitz constants by enumeration.

    ``slater_point`` must be finite, strictly positive and satisfy the
    equality constraints, checked on every call; it anchors ``delta_b1``.
    The b-free half (each basis's ``||A_B^{-1}||_2``, ``c1`` and ``c2``) is
    kept in the basis cache, which ``with_rhs`` shares; the b-half
    (``delta_b0``, ``tau`` and the inverse norm of the basis that anchors
    ``delta_b1``) in ``lp.at_b``, which it does not.  A program's first
    call makes each.
    """
    x0 = np.asarray(slater_point, dtype=float)
    if not np.isfinite(x0).all():
        raise NonFiniteData("slater point holds NaN or infinity")
    if x0.shape != (lp.m,):
        raise NotSlater(f"slater point has shape {x0.shape}, expected ({lp.m},)")
    if np.abs(lp.A @ x0 - lp.b).max() > problem.residual_tol(lp.b):
        raise NotSlater("point does not satisfy the equality constraints")
    if x0.min() <= 0.0:
        raise NotSlater("point is not strictly positive")

    family = program_family(lp)
    known = lp.basis_cache.stability
    if known is None:
        known = lp.basis_cache.stability = _b_free_half(lp, family)
    norms, c1, c2 = known
    b_half = lp.at_b.get("stability")
    if b_half is None:
        X = basic_points(lp)
        negative = X < -problem.FEAS_TOL
        delta_b0 = float((np.where(negative, -X, np.inf).min(axis=1) / norms).min())
        feasible = X.min(axis=1) >= -problem.FEAS_TOL
        # the first feasible basis in lexicographic order anchors delta_b1
        anchor = float(norms[feasible.argmax()]) if feasible.any() else None
        positive = X > problem.FEAS_TOL
        smallest = np.where(positive, X, np.inf)[feasible & positive.any(axis=1)].min(axis=1)
        b_half = lp.at_b["stability"] = (delta_b0, anchor, float(smallest.max(initial=0.0)))
    delta_b0, anchor, tau = b_half
    delta_b1 = math.inf if anchor is None else float(x0.min()) / anchor
    delta_star = min(delta_b0, delta_b1, tau / c1 if c1 > 0 else math.inf)
    return StabilityReport(delta_b0, delta_b1, tau, c1, c2, delta_star)


def _b_free_half(lp: StandardLp, family) -> tuple:
    """``(inverse norms, c1, c2)``: ``||A_B^{-1}||_2`` of every basis of the
    family and their largest, read from the family's stack of inverses, and
    the largest dual vertex norm, read from ``program_duals``."""
    # the same gesdd call per inverse as np.linalg.norm(inverse, 2)
    inv_norms = problem.read_only(np.linalg.svd(family.inverses, compute_uv=False)[:, 0].copy())[0]
    # c2 is the largest norm among vertices of {lam : A'lam <= c}: the dual
    # solutions lam' = c_B' A_B^{-1} of the dual feasible bases
    duals, feasible, _ = problem.program_duals(lp)
    c2 = max((float(np.linalg.norm(lam)) for lam in duals[feasible]), default=math.inf)
    return inv_norms, float(inv_norms.max(initial=0.0)), c2


def check_basis_inclusion(lp: StandardLp, b_prime: np.ndarray) -> bool:
    """Whether every optimal basis of the perturbed LP is optimal originally:
    one ``optimal_rows`` row at ``b_prime``, which raises its error, against
    ``optimal_vertices(lp)``, kept in the program's memo."""
    _, original = optimal_vertices(lp)
    perturbed = problem.optimal_rows(lp, problem.rhs_block(lp, [b_prime])).check()
    return set(map(tuple, perturbed.row(0)[2].tolist())) <= {basis.indices for basis in original}


def check_hausdorff_lipschitz(lp: StandardLp, b1: np.ndarray, b2: np.ndarray) -> float:
    """Ratio of optimal-set Hausdorff distance to the rhs perturbation size;
    both sets come from one ``optimal_rows`` call at ``b1`` and ``b2``,
    which raises the block's error."""
    gap = float(np.linalg.norm(np.subtract(b1, b2, dtype=float)))
    if gap == 0.0:
        raise DegenerateDenominator("identical right-hand sides")
    sets = problem.optimal_rows(lp, problem.rhs_block(lp, [b1, b2])).check()
    return hausdorff(sets.polytope(0), sets.polytope(1)) / gap
