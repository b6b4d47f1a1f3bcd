"""Perturbation-stability constants for the right-hand side of an LP.

Everything here is brute force over bases, which is the point: these
quantities certify how far ``b`` may move before the combinatorial structure
(feasible bases, optimal bases, supports) can change, and at desk scale we
can compute them exactly by enumeration.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_solve

from .errors import DegenerateDenominator, InstanceTooLarge, NotSlater
from .geometry import hausdorff
from .problem import (
    ENUM_CAP,
    FEAS_TOL,
    StandardLp,
    optimal_vertices,
    quiet_lu,
)


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

    if math.comb(lp.m, lp.k) > ENUM_CAP:
        raise InstanceTooLarge(f"C({lp.m},{lp.k}) bases exceed the enumeration cap")

    delta_b0 = math.inf
    delta_b1 = math.inf
    tau = 0.0
    c1 = 0.0
    for combo in itertools.combinations(range(lp.m), lp.k):
        lu_piv = quiet_lu(lp.A[:, combo])
        if np.abs(np.diagonal(lu_piv[0])).min() <= lp.rank_tol:
            continue
        inv_norm = _operator_norm(lu_solve(lu_piv, np.eye(lp.k), check_finite=False))
        c1 = max(c1, inv_norm)
        x_basis = lu_solve(lu_piv, lp.b, check_finite=False)
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

    c2 = _dual_vertex_norm_max(lp)
    delta_star = min(delta_b0, delta_b1, tau / c1 if c1 > 0 else math.inf)
    return StabilityReport(
        delta_b0=delta_b0,
        delta_b1=delta_b1,
        tau=tau,
        c1=c1,
        c2=c2,
        delta_star=delta_star,
    )


def _dual_vertex_norm_max(lp: StandardLp) -> float:
    """Largest Euclidean norm among vertices of {lam : A'lam <= c}.

    Vertices sit where k of the m inequalities are tight with an invertible
    tight block; infeasible candidate points are discarded.
    """
    if math.comb(lp.m, lp.k) > ENUM_CAP:
        raise InstanceTooLarge(f"C({lp.m},{lp.k}) dual subsets exceed the enumeration cap")
    slack_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    best = math.inf
    found = False
    for combo in itertools.combinations(range(lp.m), lp.k):
        lu_piv = quiet_lu(lp.A[:, combo].T)
        if np.abs(np.diagonal(lu_piv[0])).min() <= lp.rank_tol:
            continue
        lam = lu_solve(lu_piv, lp.c[list(combo)], check_finite=False)
        if (lp.A.T @ lam - lp.c).max() <= slack_tol:
            norm = float(np.linalg.norm(lam))
            best = norm if not found else max(best, norm)
            found = True
    return best if found else math.inf


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
