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

from .errors import DegenerateDenominator, NonFiniteData, NotSlater
from .geometry import hausdorff
from .problem import FEAS_TOL, StandardLp, optimal_vertices, program_bases, solve_lu


@dataclass(frozen=True)
class StabilityReport:
    delta_b0: float
    delta_b1: float
    tau: float
    c1: float
    c2: float
    delta_star: float


# bases per block; bounds the transient arrays at NORM_BLOCK basic points
# and k x k inverses
NORM_BLOCK = 64


def stability_report(lp: StandardLp, slater_point: np.ndarray, *,
                     feas_tol: float = FEAS_TOL) -> StabilityReport:
    """Compute the perturbation radii and Lipschitz constants by enumeration.

    ``slater_point`` must be finite, strictly positive and satisfy the
    equality constraints; it anchors the feasibility-preservation radius.
    The b-free half (each basis's ``||A_B^{-1}||_2``, ``c1`` and ``c2``) is
    computed by a program's first call and kept in its basis cache, which
    ``with_rhs`` shares; later calls only solve for each basic point.
    """
    x0 = np.asarray(slater_point, dtype=float)
    if not np.isfinite(x0).all():
        raise NonFiniteData("slater point holds NaN or infinity")
    residual_tol = 1e-7 * (1.0 + np.abs(lp.b).max(initial=0.0))
    if x0.shape != (lp.m,) or np.abs(lp.A @ x0 - lp.b).max() > residual_tol:
        raise NotSlater("point does not satisfy the equality constraints")
    if x0.min() <= 0.0:
        raise NotSlater("point is not strictly positive")

    known = lp.basis_cache.stability
    eye = np.eye(lp.k)
    # c2 is the largest norm among vertices of {lam : A'lam <= c}: a basis
    # whose dual solution A_B' lam = c_B satisfies every inequality
    slack_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    norm_blocks = [np.zeros(0)]
    dual_norms = []
    done = 0
    delta_b0 = math.inf
    delta_b1 = math.inf
    tau = 0.0
    bases = program_bases(lp)
    while block := list(itertools.islice(bases, NORM_BLOCK)):
        if known is None:
            # the same gesdd call per inverse as np.linalg.norm(inverse, 2)
            inverses = np.array([solve_lu(lu_piv, eye) for _, lu_piv in block])
            norms = np.linalg.svd(inverses, compute_uv=False)[:, 0]
            norm_blocks.append(norms)
            for cols, lu_piv in block:
                lam = solve_lu(lu_piv, lp.c[list(cols)], trans=1)
                if (lp.A.T @ lam - lp.c).max() <= slack_tol:
                    dual_norms.append(float(np.linalg.norm(lam)))
        else:
            norms = known[0][done:done + len(block)]
        done += len(block)
        X = np.array([solve_lu(lu_piv, lp.b) for _, lu_piv in block])
        negative = X < -feas_tol
        delta_b0 = min(delta_b0, float((np.where(negative, -X, np.inf).min(axis=1) / norms).min()))
        feasible = X.min(axis=1) >= -feas_tol
        if math.isinf(delta_b1) and feasible.any():
            # the first feasible basis in lexicographic order anchors delta_b1
            delta_b1 = float(x0.min()) / float(norms[feasible.argmax()])
        positive = X > feas_tol
        smallest = np.where(positive, X, np.inf)[feasible & positive.any(axis=1)].min(axis=1)
        tau = max(tau, float(smallest.max(initial=0.0)))

    if known is None:
        inv_norms = np.concatenate(norm_blocks)
        inv_norms.setflags(write=False)
        known = lp.basis_cache.stability = (
            inv_norms, float(inv_norms.max(initial=0.0)), max(dual_norms, default=math.inf))
    _, c1, c2 = known
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
