"""Two-phase revised simplex with Bland's rule.

Bland's rule (lowest eligible index enters; among minimum-ratio rows the
lowest basic variable index leaves) guarantees termination under degeneracy,
and makes every solve a deterministic function of the input data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import Infeasible, NoConvergence, Unbounded
from .problem import (
    FEAS_TOL,
    Basis,
    BasisCache,
    StandardLp,
    basic_solution,
    quiet_lu,
    read_only,
    solve_lu,
)


@dataclass(frozen=True)
class SolveResult:
    x_hat: np.ndarray
    basis: Basis
    objective: float
    dual: np.ndarray
    slack: np.ndarray

    def __post_init__(self):
        for name in ("x_hat", "dual", "slack"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class _Pivot:
    """Bland's decision at one basis, which does not depend on ``b``."""

    lu_piv: tuple  # read-only factors of the basis block
    entering: Optional[int]  # lowest improving column; None when optimal
    rows: Optional[np.ndarray]  # rows where the entering column is positive
    direction: Optional[np.ndarray]  # the entering column's coefficients on ``rows``


def _pivot(A: np.ndarray, c: np.ndarray, basis: list) -> _Pivot:
    enter_tol = 1e-9 * (1.0 + np.abs(c).max(initial=0.0))
    pivot_tol = 1e-10 * (1.0 + np.abs(A).max(initial=0.0))
    lu_piv = read_only(*quiet_lu(A[:, basis]))
    y = solve_lu(lu_piv, c[basis], trans=1)
    reduced = c - A.T @ y
    reduced[basis] = 0.0
    candidates = np.flatnonzero(reduced < -enter_tol)
    if candidates.size == 0:
        return _Pivot(lu_piv, None, None, None)
    entering = int(candidates[0])
    direction = solve_lu(lu_piv, A[:, entering])
    rows = np.flatnonzero(direction > pivot_tol)
    return _Pivot(lu_piv, entering, *read_only(rows, direction[rows]))


def ratio_test(x_b: np.ndarray, rows: np.ndarray, direction: np.ndarray, order) -> int:
    """Leaving row: least ratio ``x_b / direction`` over ``rows``, ties to the
    row whose ``order`` entry (its basic column) is lowest."""
    ratios = np.maximum(x_b[rows], 0.0) / direction
    best = ratios.min()
    ties = rows[(ratios <= best + 1e-12 * (1.0 + best)).nonzero()[0]]
    return int(min(ties, key=order.__getitem__))


def _bland(cache: BasisCache, phase: tuple, A: np.ndarray, b: np.ndarray, c: np.ndarray,
           basis: list):
    """Run Bland-rule pivots from ``basis`` until optimal or unbounded.

    ``b`` must be nonnegative and ``basis`` must index a feasible square
    block.  Each basis's factors and pivot decision come from ``cache``
    under ``phase``, which names ``A`` and ``c``; only ``x_B`` and the ratio
    test depend on ``b``.
    """
    k, n = A.shape
    basis = list(basis)
    for _ in range(_pivot_budget(k, n)):
        step = cache.get((phase, tuple(basis)), lambda: _pivot(A, c, basis))
        x_b = solve_lu(step.lu_piv, b)
        if step.entering is None:
            return basis, x_b
        if step.rows.size == 0:
            raise Unbounded(f"column {step.entering} has no blocking row")
        basis[ratio_test(x_b, step.rows, step.direction, basis)] = step.entering
    raise NoConvergence("pivot budget exhausted; the instance may be ill-conditioned")


def _pivot_budget(k: int, n: int) -> int:
    return 2000 + 40 * (n + k)


def _sign_pattern(cache: BasisCache, lp: StandardLp, negative: np.ndarray):
    """Phase data for the rows of ``A`` negated where ``negative``."""

    def build():
        flip = np.where(negative, -1.0, 1.0)
        A1 = lp.A * flip[:, None]
        A_art = np.hstack([A1, np.eye(lp.k)])
        c_art = np.concatenate([np.zeros(lp.m), np.ones(lp.k)])
        return read_only(flip, A1, A_art, c_art)

    return cache.get(("signs", negative.tobytes()), build)


def _certificate(lp: StandardLp, indices: tuple):
    dual = np.linalg.solve(lp.A[:, indices].T, lp.c[list(indices)])
    slack = lp.c - lp.A.T @ dual
    return read_only(dual, slack)


def solve(lp: StandardLp, *, feas_tol: float = FEAS_TOL) -> SolveResult:
    """Optimal vertex, basis, and dual certificate for a standard-form LP.

    Raises ``Infeasible`` when phase one cannot clear the artificial
    variables, ``Unbounded`` when phase two detects a descent ray, and
    ``NoConvergence`` when the pivot budget runs out.  Programs sharing a
    basis cache (see ``StandardLp.with_rhs``) re-use each other's factors;
    the result is bit for bit the one a fresh program gives.
    """
    k, m = lp.k, lp.m
    cache = lp.basis_cache
    negative = lp.b < 0
    signs = negative.tobytes()
    flip, A1, A_art, c_art = _sign_pattern(cache, lp, negative)
    b1 = lp.b * flip

    # phase one: minimize the total artificial mass
    basis, x_b = _bland(cache, ("phase1", signs), A_art, b1, c_art, range(m, m + k))
    if float(x_b[np.asarray(basis) >= m].sum(initial=0.0)) > feas_tol:
        raise Infeasible("phase one terminated with positive artificial mass")
    if max(basis) >= m:
        basis = cache.get(("evict", signs, tuple(basis)),
                          lambda: _evict_artificials(A_art, np.array(basis), m))

    basis, _ = _bland(cache, ("phase2", signs), A1, b1, lp.c, basis)
    final = Basis(tuple(sorted(basis)))
    point = basic_solution(lp, final, feas_tol=feas_tol, cached=True)
    dual, slack = cache.get(("certificate", final.indices),
                            lambda: _certificate(lp, final.indices))
    return SolveResult(
        x_hat=point.x,
        basis=final,
        objective=float(lp.c @ point.x),
        dual=dual,
        slack=slack,
    )


def _evict_artificials(A_art: np.ndarray, basis: np.ndarray, m: int) -> tuple:
    """Swap zero-valued artificial columns out of the basis.

    After a successful phase one every artificial in the basis sits at value
    zero; full row rank of the real columns guarantees a replacement pivot.
    """
    basis = basis.copy()
    pivot_tol = 1e-10 * (1.0 + np.abs(A_art).max(initial=0.0))
    for row in range(len(basis)):
        if basis[row] < m:
            continue
        lu_piv = quiet_lu(A_art[:, basis])
        for j in range(m):
            if j in basis:
                continue
            column = solve_lu(lu_piv, A_art[:, j])
            if abs(column[row]) > pivot_tol:
                basis[row] = j
                break
        else:
            raise NoConvergence("could not replace a basic artificial variable")
    return tuple(int(j) for j in basis)


def verify_kkt(lp: StandardLp, result: SolveResult, *, feas_tol: float = FEAS_TOL) -> bool:
    """Check stationarity, primal/dual feasibility, and complementary slackness."""
    kkt_tol = 1e-7 * (1.0 + np.abs(lp.c).max(initial=0.0) + np.abs(lp.b).max(initial=0.0))
    x, lam, s = result.x_hat, result.dual, result.slack
    if np.abs(lp.A.T @ lam + s - lp.c).max() > kkt_tol:
        return False
    if np.abs(lp.A @ x - lp.b).max() > kkt_tol:
        return False
    if x.min(initial=0.0) < -feas_tol:
        return False
    if s.min(initial=0.0) < -feas_tol:
        return False
    return bool(abs(float(x @ s)) <= kkt_tol)
