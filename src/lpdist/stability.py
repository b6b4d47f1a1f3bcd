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

from .errors import DegenerateDenominator, NotSlater
from .geometry import hausdorff
from .problem import FEAS_TOL, StandardLp, iter_bases, optimal_vertices, solve_lu


@dataclass(frozen=True)
class StabilityReport:
    delta_b0: float
    delta_b1: float
    tau: float
    c1: float
    c2: float
    delta_star: float


def _operator_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(matrix, 2))


def stability_report(lp: StandardLp, slater_point: np.ndarray, *,
                     feas_tol: float = FEAS_TOL) -> StabilityReport:
    """Compute the perturbation radii and Lipschitz constants by enumeration.

    ``slater_point`` must be strictly positive and satisfy the equality
    constraints; it anchors the feasibility-preservation radius.
    """
    x0 = np.asarray(slater_point, dtype=float)
    residual_tol = 1e-7 * (1.0 + np.abs(lp.b).max(initial=0.0))
    if x0.shape != (lp.m,) or np.abs(lp.A @ x0 - lp.b).max() > residual_tol:
        raise NotSlater("point does not satisfy the equality constraints")
    if x0.min() <= 0.0:
        raise NotSlater("point is not strictly positive")

    delta_b0 = math.inf
    delta_b1 = math.inf
    tau = 0.0
    c1 = 0.0
    # c2 is the largest norm among vertices of {lam : A'lam <= c}: a basis
    # whose dual solution A_B' lam = c_B satisfies every inequality
    slack_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    dual_norms = []
    for cols, lu_piv in iter_bases(lp.A):
        inv_norm = _operator_norm(solve_lu(lu_piv, np.eye(lp.k)))
        c1 = max(c1, inv_norm)
        x_basis = solve_lu(lu_piv, lp.b)
        strictly_negative = x_basis[x_basis < -feas_tol]
        if strictly_negative.size:
            delta_b0 = min(delta_b0, float(np.abs(strictly_negative).min()) / inv_norm)
        if x_basis.min() >= -feas_tol:
            if math.isinf(delta_b1):
                # first feasible basis in lexicographic order anchors delta_b1
                delta_b1 = float(x0.min()) / inv_norm
            positive = x_basis[x_basis > feas_tol]
            if positive.size:
                tau = max(tau, float(positive.min()))
        lam = solve_lu(lu_piv, lp.c[list(cols)], trans=1)
        if (lp.A.T @ lam - lp.c).max() <= slack_tol:
            dual_norms.append(float(np.linalg.norm(lam)))

    c2 = max(dual_norms, default=math.inf)
    delta_star = min(delta_b0, delta_b1, tau / c1 if c1 > 0 else math.inf)
    return StabilityReport(
        delta_b0=delta_b0,
        delta_b1=delta_b1,
        tau=tau,
        c1=c1,
        c2=c2,
        delta_star=delta_star,
    )


def check_basis_inclusion(lp: StandardLp, b_prime: np.ndarray) -> bool:
    """Whether every optimal basis of the perturbed LP is optimal originally."""
    _, optimal_orig = optimal_vertices(lp)
    _, optimal_pert = optimal_vertices(lp.with_rhs(b_prime))
    return set(optimal_pert) <= set(optimal_orig)


def check_hausdorff_lipschitz(lp: StandardLp, b1: np.ndarray, b2: np.ndarray) -> float:
    """Ratio of optimal-set Hausdorff distance to the rhs perturbation size."""
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    gap = float(np.linalg.norm(b1 - b2))
    if gap == 0.0:
        raise DegenerateDenominator("identical right-hand sides")
    set1, _ = optimal_vertices(lp.with_rhs(b1))
    set2, _ = optimal_vertices(lp.with_rhs(b2))
    return hausdorff(set1, set2) / gap
