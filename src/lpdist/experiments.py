"""Monte Carlo studies: confidence-set coverage and limit-law comparison.

Two ready-made experiments reproduce classic small instances — a 2x2
transport problem with multinomial marginals and a 5-node min-cost flow
network with Gaussian supply noise — and a generic harness runs any
configuration.  All randomness flows through counter-based per-replicate
streams, so reports are reproducible and independent of execution order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .confidence import (
    ConfidenceSet,
    EllipsoidRegion,
    SegmentFamilyRegion,
    confidence_set,
    contains,
    coordinate_interval,
    map_region,
    region_from_dict,
)
from .errors import InstanceMismatch, LpError, SingularBasis
from .geometry import hausdorff, min_norm_point
from .limits import LAWS, GaussianLaw, MultinomialLaw, distance_statistic, sample_unique_limit
from .problem import (
    Basis,
    Polytope,
    StandardLp,
    _matrix_rank,
    basic_solution,
    build_from_spec,
    build_kind,
    cached_factors,
    load_lp,
    optimal_vertices,
    read_only,
    solve_lu,
    support,
)
from .simplex import ratio_test, solve

DEFAULT_SEED = 0x5EED


@dataclass
class ExperimentConfig:
    lp: StandardLp
    truth_b: np.ndarray
    b_sampler: object
    region: object
    targets: Polytope
    rate_exponent: float = 0.5
    n_values: Sequence[int] = (1, 10, 100, 10000)
    replicates: int = 1000
    seed: int = DEFAULT_SEED
    name: str = "custom"


@dataclass(frozen=True)
class CoverageRow:
    n: int
    replicates: int
    covered: int
    coverage: float
    std_error: float


@dataclass(frozen=True)
class ReplicateRecord:
    n: int
    replicate: int
    covered: bool
    covered_targets: tuple
    basis: tuple
    error: Optional[str] = None


@dataclass
class CoverageReport:
    rows: list
    log: list = field(default_factory=list)


def selection_basis(lp: StandardLp, x: np.ndarray, *, tol: float = None) -> Basis:
    """Deterministic reporting basis: the support of ``x`` completed by the
    smallest-index columns that keep the block invertible.

    Any completion is an optimal basis when ``x`` is an optimal basic
    solution, and for a nondegenerate solution this is the only basis; the
    greedy completion pins down which one is used on degenerate replicates.
    The completion depends on the support only and is kept in the program's
    basis cache.
    """
    sup = tuple(sorted(support(x, tol) if tol is not None else support(x)))
    return lp.basis_cache.get(("selection", sup), lambda: _complete_support(lp, sup))


def _complete_support(lp: StandardLp, sup: tuple) -> Basis:
    chosen = list(sup)
    rank = _matrix_rank(lp.A[:, chosen], 0.0)
    if rank < len(chosen):
        raise SingularBasis("support columns are linearly dependent")
    for j in range(lp.m):
        if rank == lp.k:
            break
        if j in chosen:
            continue
        trial = sorted(chosen + [j])
        if _matrix_rank(lp.A[:, trial], 0.0) > rank:
            chosen = trial
            rank += 1
    if rank < lp.k:
        raise SingularBasis("could not complete the support to a basis")
    return Basis(tuple(chosen))


def build_ot_2x2() -> ExperimentConfig:
    """2x2 transport plan with multinomial row marginals.

    Costs penalize the off-diagonal cells, so the optimum at the balanced
    truth is the diagonal plan; the rhs noise concentrates on the line
    (1,-1,0) and the 95% region is the corresponding segment family.
    """
    A = [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
    ]
    truth_b = np.array([0.5, 0.5, 0.5])
    c = np.array([0.0, 1.0, 1.0, 0.0])
    lp = StandardLp(A, truth_b, c)
    targets, _ = optimal_vertices(lp)
    from .quantiles import two_sided_normal_quantile

    half_width = two_sided_normal_quantile(0.05) / 2.0
    region = SegmentFamilyRegion((1.0, -1.0, 0.0), half_width, coverage_target=0.95)
    sampler = MultinomialLaw((0.5, 0.5), tail=(0.5,))
    return ExperimentConfig(lp=lp, truth_b=truth_b, b_sampler=sampler, region=region,
                            targets=targets, n_values=(1, 10, 100, 10000),
                            name="ot2x2")


MCF_ARCS = ((1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5), (5, 3))
MCF_CAPACITIES = (15.0, 8.0, 20.0, 4.0, 10.0, 15.0, 4.0, 20.0, 5.0)
MCF_COSTS = (4.0, 4.0, 2.0, 2.0, 6.0, 1.0, 3.0, 2.0, 3.0)
MCF_SUPPLIES = {1: 20.0, 2: 0.0, 4: -5.0, 5: -15.0}
MCF_SOLUTION_1 = (12.0, 8.0, 8.0, 4.0, 0.0, 15.0, 1.0, 14.0, 0.0)
MCF_SOLUTION_2 = (12.0, 8.0, 8.0, 4.0, 0.0, 12.0, 4.0, 11.0, 0.0)


def build_min_cost_flow() -> ExperimentConfig:
    """Capacitated 5-node min-cost flow with Gaussian supply noise.

    Arc flows get one column each, capacities one slack column each, and
    one balance row is dropped (flow conservation makes it redundant).  The
    construction is gated: the two known optimal flows must both be optimal
    vertices of the encoded program, otherwise ``InstanceMismatch``.
    """
    arcs = MCF_ARCS
    n_arcs = len(arcs)
    balance_nodes = sorted(MCF_SUPPLIES)
    k = len(balance_nodes) + n_arcs
    m = 2 * n_arcs
    A = np.zeros((k, m))
    b = np.zeros(k)
    for row, node in enumerate(balance_nodes):
        for j, (u, v) in enumerate(arcs):
            if u == node:
                A[row, j] += 1.0
            if v == node:
                A[row, j] -= 1.0
        b[row] = MCF_SUPPLIES[node]
    for j in range(n_arcs):
        row = len(balance_nodes) + j
        A[row, j] = 1.0
        A[row, n_arcs + j] = 1.0
        b[row] = MCF_CAPACITIES[j]
    c = np.concatenate([np.array(MCF_COSTS), np.zeros(n_arcs)])
    lp = StandardLp(A, b, c)

    def with_slacks(flow):
        flow = np.array(flow, dtype=float)
        return np.concatenate([flow, np.array(MCF_CAPACITIES) - flow])

    targets, _ = optimal_vertices(lp)
    expected = [with_slacks(MCF_SOLUTION_1), with_slacks(MCF_SOLUTION_2)]
    for point in expected:
        gaps = np.abs(targets.vertices - point).max(axis=1) if len(targets) else [np.inf]
        if min(gaps) > 1e-7:
            raise InstanceMismatch("a known optimal flow is not optimal for the encoding")
    sigma = np.diag([4.0, 1.0, 1.0, 3.0])
    region = EllipsoidRegion(sigma, level=0.95, support_indices=(0, 1, 2, 3))
    sampler = GaussianLaw(sigma, support_indices=(0, 1, 2, 3))
    return ExperimentConfig(lp=lp, truth_b=b, b_sampler=sampler, region=region,
                            targets=targets, n_values=(50, 500), name="mcf")


def _replicate_stream(seed: int, n_index: int, replicate: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, n_index, replicate]))


def optimal_face_vertices(lp: StandardLp, result) -> list:
    """The solved vertex plus its optimal neighbors, as (x, objective-equal) pairs.

    When the dual is degenerate (a reduced cost vanishes off the basis),
    pivoting that column in moves along the optimal face to an adjacent
    optimal basic solution.  Returns ``[(basis_indices, x), ...]`` with the
    solved vertex first; a single entry means the solution is unique against
    one-pivot moves.
    """
    out = [(result.basis.indices, result.x_hat)]
    cols = result.basis.indices
    zero_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    loose = tuple(int(j) for j in np.flatnonzero(np.abs(result.slack) <= zero_tol)
                  if j not in cols)
    if not loose:
        return out
    lu_piv = cached_factors(lp, cols)
    moves = lp.basis_cache.get(("face", cols, loose), lambda: _face_moves(lp, lu_piv, loose))
    x_b = solve_lu(lu_piv, lp.b)
    for j, rows, direction in moves:
        if rows.size == 0:
            continue
        leaving_row = ratio_test(x_b, rows, direction, cols)
        new_cols = tuple(sorted(cols[:leaving_row] + cols[leaving_row + 1:] + (j,)))
        point = basic_solution(lp, Basis(new_cols), cached=True)
        if point.feasible and new_cols not in (basis for basis, _ in out):
            out.append((new_cols, point.x))
    return out


def _face_moves(lp: StandardLp, lu_piv, loose: tuple) -> tuple:
    """``(j, rows, direction)`` per loose column ``j``: the rows where its
    coordinates in the basis exceed the pivot tolerance, and those coordinates."""
    pivot_tol = 1e-10 * (1.0 + np.abs(lp.A).max(initial=0.0))
    moves = []
    for j in loose:
        direction = solve_lu(lu_piv, lp.A[:, j])
        rows = np.flatnonzero(direction > pivot_tol)
        moves.append((j, *read_only(rows, direction[rows])))
    return tuple(moves)


def _run_one(config: ExperimentConfig, n: int, n_index: int, replicate: int,
             parts: dict) -> ReplicateRecord:
    rng = _replicate_stream(config.seed, n_index, replicate)
    rate = float(n) ** config.rate_exponent
    b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
    try:
        lp_n = config.lp.with_rhs(b_n)
        result = solve(lp_n)
        # practical solvers select arbitrarily among multiply-optimal
        # vertices; model that selection by drawing uniformly over the
        # face candidates from the replicate's own stream
        candidates = optimal_face_vertices(lp_n, result)
        _, x_hat = candidates[int(rng.integers(len(candidates)))]
        basis = selection_basis(config.lp, x_hat)
        mapped, projection = _basis_parts(config, basis, parts)
        cs = ConfidenceSet(center=np.array(x_hat, dtype=float), rate=rate, mapped=mapped)
        covered_targets = tuple(
            i for i, v in enumerate(config.targets.vertices) if contains(cs, v)
        )
        covered = bool(covered_targets) or contains(cs, projection)
        return ReplicateRecord(n=n, replicate=replicate, covered=covered,
                               covered_targets=covered_targets,
                               basis=basis.indices)
    except LpError as exc:
        return ReplicateRecord(n=n, replicate=replicate, covered=False,
                               covered_targets=(), basis=(), error=str(exc))


def _basis_parts(config: ExperimentConfig, basis: Basis, parts: dict) -> tuple:
    """The mapped region and the projection of the truth's basic point onto
    the targets; both depend on the selection basis only, so ``parts``
    keeps them for the rest of one coverage run."""
    found = parts.get(basis.indices)
    if found is None:
        mapped = map_region(config.lp, basis, config.region)
        anchor = basic_solution(config.lp, basis).x
        projection, _ = min_norm_point(config.targets, anchor)
        found = parts[basis.indices] = (mapped, projection)
    return found


def run_coverage(config: ExperimentConfig, *, n_values=None, replicates=None,
                 keep_log: bool = False, threads: int = 1) -> CoverageReport:
    """Coverage of the target optimal set across replicates, per sample size.

    A replicate counts as covered when the confidence set contains any
    enumerated target vertex or the projection of its reported basic
    solution onto the target set.  Solver failures are logged and counted
    as non-covered.

    ``threads`` is accepted for compatibility and ignored: replicates run
    in this thread, one after another.  Each replicate has its own random
    stream, so the report is the same either way.
    """
    n_values = list(config.n_values if n_values is None else n_values)
    replicates = int(config.replicates if replicates is None else replicates)
    if replicates < 1 or min(n_values, default=1) < 1:
        raise ValueError("replicates and sample sizes must be positive")
    rows = []
    log = []
    parts: dict = {}
    for n_index, n in enumerate(n_values):
        records = [_run_one(config, n, n_index, rep, parts) for rep in range(replicates)]
        covered = sum(1 for rec in records if rec.covered)
        coverage = covered / replicates
        rows.append(CoverageRow(
            n=int(n), replicates=replicates, covered=covered, coverage=coverage,
            std_error=math.sqrt(max(coverage * (1.0 - coverage), 0.0) / replicates),
        ))
        if keep_log:
            log.extend(records)
    return CoverageReport(rows=rows, log=log)


def kolmogorov_smirnov(sample_a, sample_b) -> float:
    """Two-sample KS distance: sup over thresholds of the ECDF gap."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def run_limit_comparison(config: ExperimentConfig, n: int, draws: int, *,
                         statistic: str = "distance", seed: Optional[int] = None) -> dict:
    """KS distance between the finite-sample statistic and its limit law.

    ``statistic`` is the scaled distance from the solved point to the target
    set ("distance") or the scaled Hausdorff distance between optimal sets
    ("hausdorff").  Returns the KS distance along with both sample means.
    """
    if statistic not in ("distance", "hausdorff"):
        raise ValueError("statistic must be 'distance' or 'hausdorff'")
    if len(config.targets) != 1:
        raise InstanceMismatch("limit comparison needs a unique target optimum")
    seed = config.seed if seed is None else int(seed)
    rate = float(n) ** config.rate_exponent
    finite = np.empty(draws)
    for i in range(draws):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[1, 0, 0, i]))
        b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
        if statistic == "distance":
            result = solve(config.lp.with_rhs(b_n))
            _, dist = min_norm_point(config.targets, result.x_hat)
            finite[i] = rate * dist
        else:
            shifted, _ = optimal_vertices(config.lp.with_rhs(b_n))
            finite[i] = rate * hausdorff(shifted, config.targets)
    x_star = config.targets.vertices[0]
    noise = config.b_sampler.limit_noise(seed, config.lp.k)
    samples = sample_unique_limit(config.lp, x_star, noise, draws)
    if statistic == "distance":
        limit = np.array([distance_statistic(s) for s in samples])
    else:
        origin = Polytope([np.zeros(config.lp.m)])
        limit = np.array([hausdorff(s.optimal_set, origin) for s in samples])
    return {
        "n": int(n),
        "draws": int(draws),
        "statistic": statistic,
        "ks_distance": kolmogorov_smirnov(finite, limit),
        "finite_mean": float(finite.mean()),
        "limit_mean": float(limit.mean()),
    }


def singleton_coordinates(cs) -> list:
    """Coordinates whose confidence interval collapses to a point."""
    out = []
    for i in range(len(cs.center)):
        lo, hi = coordinate_interval(cs, i)
        if hi - lo == 0.0:
            out.append(i)
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    """Assemble a custom experiment from a JSON-shaped description, whose keys
    and values are checked like a nested spec's (see ``build_from_spec``)."""
    return build_from_spec(_custom_config, data, "experiment config",
                           ("lp", "b_sampler", "region"),
                           ("truth_b", "rate_exponent", "n_values", "replicates", "seed", "name"))


def _custom_config(lp, b_sampler, region, truth_b=None, rate_exponent=0.5, n_values=(100,),
                   replicates=1000, seed=DEFAULT_SEED, name="custom") -> ExperimentConfig:
    if not isinstance(n_values, (list, tuple)):
        raise TypeError(f"n_values must be a list, not {type(n_values).__name__}")
    if not isinstance(name, str):
        raise TypeError(f"name must be a string, not {type(name).__name__}")
    lp = load_lp(lp)
    truth_b = np.array(lp.b if truth_b is None else truth_b, dtype=float)
    lp = lp.with_rhs(truth_b)
    sampler = build_kind(LAWS, b_sampler, "b_sampler")
    if not hasattr(sampler, "sample"):
        raise ValueError(f"{sampler.kind} b_sampler spec: the law has no finite-sample form")
    region = region_from_dict(region)
    targets, _ = optimal_vertices(lp)
    return ExperimentConfig(
        lp=lp, truth_b=truth_b, b_sampler=sampler, region=region, targets=targets,
        rate_exponent=float(rate_exponent), n_values=tuple(int(v) for v in n_values),
        replicates=int(replicates), seed=int(seed), name=name,
    )
