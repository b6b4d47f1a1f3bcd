"""Two-phase revised simplex with Bland's rule.

Bland's rule (lowest eligible index enters; among minimum-ratio rows the
lowest basic variable index leaves) guarantees termination under degeneracy,
and makes every solve a deterministic function of the input data.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problem
from .errors import Infeasible, LpError, NoConvergence, SingularBasis, Unbounded
from .problem import (
    Basis,
    BasisCache,
    OptimalSets,
    StandardLp,
    cached_factors,
    group_rows,
    quiet_lu,
    read_only,
    solve_factored,
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
    rows: Optional[np.ndarray]  # rows where the entering column is positive,
    # ordered by their basic column, so a tie goes to the first
    direction: Optional[np.ndarray]  # the entering column's coefficients on ``rows``


def _pivot(A: np.ndarray, c: np.ndarray, basis: list, tols: tuple) -> _Pivot:
    enter_tol, pivot_tol = tols
    lu_piv = read_only(*quiet_lu(A[:, basis]))
    y = solve_lu(lu_piv, c[basis], trans=1)
    reduced = c - A.T @ y
    reduced[basis] = 0.0
    candidates = np.flatnonzero(reduced < -enter_tol)
    if candidates.size == 0:
        return _Pivot(lu_piv, None, None, None)
    entering = int(candidates[0])
    direction = solve_lu(lu_piv, A[:, entering])
    rows = np.array(sorted(np.flatnonzero(direction > pivot_tol).tolist(),
                           key=basis.__getitem__), dtype=np.intp)
    return _Pivot(lu_piv, entering, *read_only(rows, direction[rows]))


def ratio_test(x_b: np.ndarray, rows: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Leaving row for each row of the ``(N, k)`` block ``x_b``: least ratio
    ``x_b / direction`` over ``rows``, ties to the first of ``rows``.

    With ``rows`` ordered by their basic columns, a tie goes to the lowest
    basic column, which is Bland's rule.
    """
    ratios = np.maximum(x_b[:, rows], 0.0) / direction
    best = np.minimum.reduce(ratios, axis=1, keepdims=True)
    return rows[(ratios <= best + 1e-12 * (1.0 + best)).argmax(axis=1)]


def _bland(cache: BasisCache, phase: tuple, A: np.ndarray, c: np.ndarray, rhs: np.ndarray,
           frontier: dict, errors: dict, m: int) -> list:
    """Run Bland-rule pivots on a block of right-hand sides until each row
    is optimal or unbounded.

    ``frontier`` maps a basis (a tuple of columns in row order) to the
    indices of the rows of ``rhs`` that start there; each basis must index
    a square block feasible for its rows, which need not be nonnegative.  Each
    basis's factors and pivot decision come from ``cache`` under ``phase``,
    which names ``A`` and ``c``; only ``x_B`` and the ratio test depend on
    the rows, and all rows at one basis are solved in one ``getrs``.
    Returns ``[(final basis, rows, x_B), ...]``, where ``x_B`` is solved
    only at a basis that keeps an artificial column (one of index ``m`` or
    more) and is ``None`` elsewhere; a row that fails gets its ``LpError``
    in ``errors`` instead.  Every row takes the pivots it would take alone,
    so the block changes no row's path.
    """
    k, n = A.shape
    tols = (problem.reduced_cost_tol(c), problem.pivot_tol(A))  # entering, pivot
    done = []
    for _ in range(_pivot_budget(k, n)):
        moved: dict = {}
        for basis, rows in frontier.items():
            step = cache.get((phase, basis), lambda: _pivot(A, c, list(basis), tols))
            if step.entering is None:
                x_b = solve_factored((step.lu_piv,), rhs, rows)[0] if max(basis) >= m else None
                done.append((basis, rows, x_b))
            elif step.rows.size == 0:
                _fail(errors, rows, Unbounded, f"column {step.entering} has no blocking row")
            else:
                x_b = solve_factored((step.lu_piv,), rhs, rows)[0]
                leaving = ratio_test(x_b, step.rows, step.direction)
                positions = set(leaving.tolist())
                for pos in positions:
                    after = basis[:pos] + (step.entering,) + basis[pos + 1:]
                    moved.setdefault(after, []).append(
                        rows if len(positions) == 1 else rows[leaving == pos])
        if not moved:
            return done
        frontier = {basis: _joined(parts) for basis, parts in moved.items()}
    for rows in frontier.values():
        _fail(errors, rows, NoConvergence,
              "pivot budget exhausted; the instance may be ill-conditioned")
    return done


def _joined(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _fail(errors: dict, rows, kind, message: str):
    for row in np.asarray(rows).tolist():
        errors[row] = kind(message)


def _pivot_budget(k: int, n: int) -> int:
    return 2000 + 40 * (n + k)


def _sign_pattern(cache: BasisCache, lp: StandardLp, negative: np.ndarray):
    """Phase one's ``[A | diag(s)]`` and cost, ``s`` -1 where ``negative``
    and 1 elsewhere, so each artificial starts at its row's ``|rhs|``."""

    def build():
        A_art = np.hstack([lp.A, np.diag(np.where(negative, -1.0, 1.0))])
        c_art = np.concatenate([np.zeros(lp.m), np.ones(lp.k)])
        return read_only(A_art, c_art)

    return cache.get(("signs", negative.tobytes()), build)


def dual_certificate(lp: StandardLp, cols: tuple) -> tuple:
    """``(dual, slack)`` of the basis ``cols``: the duals and the reduced
    costs, kept in the program's basis cache.  Raises ``SingularBasis``
    when LAPACK finds the columns singular."""

    def build():
        try:
            dual = np.linalg.solve(lp.A[:, cols].T, lp.c[list(cols)])
        except np.linalg.LinAlgError as exc:
            raise SingularBasis(f"columns {tuple(cols)} are singular") from exc
        return read_only(dual, lp.c - lp.A.T @ dual)

    return lp.basis_cache.get(("certificate", cols), build)


def solve_block(lp: StandardLp, rhs) -> OptimalSets:
    """The ``OptimalSets`` of ``lp`` at each row of the ``(N, k)`` block
    ``rhs`` as the simplex finds them: each row's one optimal vertex, its
    value and the sorted columns of its final basis, and no groups; each
    other row's ``LpError`` is in ``errors``, in row order.  ``ValueError``
    for rows of the wrong length.  A row's result is the one ``solve``
    gives at that rhs.
    """
    k, m = lp.k, lp.m
    rhs, finite, errors = problem._finite_rows(rhs, k)
    cache = lp.basis_cache
    phase2: dict = {}
    for pattern, rows in group_rows(rhs[finite] < 0, finite):
        signs = pattern.tobytes()
        A_art, c_art = _sign_pattern(cache, lp, pattern)
        # phase one: minimize the total artificial mass
        for basis, at, x_b in _bland(cache, ("phase1", signs), A_art, c_art, rhs,
                                     {tuple(range(m, m + k)): rows}, errors, m):
            if x_b is not None:
                mass = x_b[:, np.asarray(basis) >= m].sum(axis=1)
                _fail(errors, at[mass > problem.FEAS_TOL], Infeasible,
                      "phase one terminated with positive artificial mass")
                at = at[mass <= problem.FEAS_TOL]
                if not at.size:
                    continue
                try:
                    basis = cache.get(("evict", signs, basis), lambda: _evict_artificials(
                        A_art, np.array(basis), m, lp.rank_tol))
                except LpError as exc:
                    _fail(errors, at, type(exc), str(exc))
                    continue
            phase2.setdefault(basis, []).append(at)
    # phase two: every sign pattern's rows on the program itself
    phase2 = {basis: _joined(parts) for basis, parts in phase2.items()}
    points, bases = np.zeros((len(rhs), m)), np.zeros((len(rhs), k), dtype=np.intp)
    for basis, at, _ in _bland(cache, ("phase2",), lp.A, lp.c, rhs, phase2, errors, m):
        cols = tuple(sorted(basis))
        try:
            lu_piv = cached_factors(lp, cols)
        except LpError as exc:
            _fail(errors, at, type(exc), str(exc))
            continue
        points[at[:, None], list(cols)] = solve_factored((lu_piv,), rhs, at)[0]
        bases[at] = cols
    # phase one accepts an artificial mass up to FEAS_TOL, which can be a
    # whole row's scale; the vertex it leads to need not be feasible
    for row in (points.min(axis=1) < -problem.FEAS_TOL).nonzero()[0].tolist():
        j = int(points[row].argmin())
        errors[row] = NoConvergence(f"the final basis gives x[{j}] = {float(points[row, j])!r}, "
                                    "below -FEAS_TOL")
    if errors:
        errors = dict(sorted(errors.items()))
        points[list(errors)] = 0.0
    values = [0.0 if row in errors else float(lp.c @ x) for row, x in enumerate(points)]
    return OptimalSets(read_only(points)[0], values, bases, [], errors)


def solve_rows(lp: StandardLp, rows) -> list:
    """``solve`` at each row of the ``(N, k)`` block ``rows``: a list with
    each row's ``SolveResult``, or the ``LpError`` that row raised.

    Rows at the same basis are solved together, one ``getrs`` call per
    basis visited, and a failing row leaves the others unaffected.  A row's
    result, bit for bit, depends neither on the other rows nor on their
    order.
    """
    sets = solve_block(lp, rows)
    out = [sets.errors.get(row) for row in range(len(sets.points))]
    solved = np.array([row for row, result in enumerate(out) if result is None], dtype=np.intp)
    for cols, at in group_rows(sets.bases[solved], solved):
        cols = tuple(cols.tolist())
        basis = Basis(cols)
        dual, slack = dual_certificate(lp, cols)
        for row in at.tolist():
            out[row] = SolveResult(x_hat=sets.points[row], basis=basis,
                                   objective=sets.values[row], dual=dual, slack=slack)
    return out


def solve(lp: StandardLp) -> SolveResult:
    """Optimal vertex, basis, and dual certificate for a standard-form LP.

    Raises ``Infeasible`` when phase one cannot clear the artificial
    variables, ``Unbounded`` when phase two detects a descent ray, and
    ``NoConvergence`` when the pivot budget runs out or the final basis
    gives a coordinate below ``-FEAS_TOL``.  This is
    ``solve_rows`` on the block of ``lp.b`` alone.  Programs sharing a
    basis cache (see ``StandardLp.with_rhs``) re-use each other's factors;
    the result is bit for bit the one a fresh program gives.
    """
    result, = solve_rows(lp, lp.b[None, :])
    if isinstance(result, LpError):
        raise result
    return result


def _evict_artificials(A_art: np.ndarray, basis: np.ndarray, m: int, tol: float) -> tuple:
    """Swap zero-valued artificial columns out of the basis.

    After a successful phase one every artificial in the basis sits at value
    zero; full row rank of the real columns guarantees a replacement pivot,
    taken above ``tol``: the program's ``rank_tol``, the rank rule's scale.
    """
    basis = basis.copy()
    for row in range(len(basis)):
        if basis[row] < m:
            continue
        lu_piv = quiet_lu(A_art[:, basis])
        for j in range(m):
            if j in basis:
                continue
            column = solve_lu(lu_piv, A_art[:, j])
            if abs(column[row]) > tol:
                basis[row] = j
                break
        else:
            raise NoConvergence("could not replace a basic artificial variable")
    return tuple(int(j) for j in basis)


def verify_kkt(lp: StandardLp, result: SolveResult) -> bool:
    """Check stationarity, primal/dual feasibility, and complementary slackness."""
    kkt_tol = problem.residual_tol(lp.c, lp.b)
    x, lam, s = result.x_hat, result.dual, result.slack
    if np.abs(lp.A.T @ lam + s - lp.c).max() > kkt_tol:
        return False
    if np.abs(lp.A @ x - lp.b).max() > kkt_tol:
        return False
    if x.min(initial=0.0) < -problem.FEAS_TOL:
        return False
    if s.min(initial=0.0) < -problem.FEAS_TOL:
        return False
    return bool(abs(float(x @ s)) <= kkt_tol)
