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
from itertools import chain, repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .confidence import (
    EllipsoidRegion,
    RowBases,
    SegmentFamilyRegion,
    confidence_rows,
    contains_rows,
    coordinate_interval,
    region_from_dict,
)
from .errors import InstanceMismatch, LpError
from .geometry import min_norm_point
from .limits import (
    LAWS,
    GaussianLaw,
    MultinomialLaw,
    _philox_key,
    philox_streams,
    sample_unique_limit,
    set_statistic,
)
from . import problem
from .problem import (
    Basis,
    BasisFamily,
    Polytope,
    StandardLp,
    basic_solution,
    build_from_spec,
    build_kind,
    check_support,
    group_rows,
    load_lp,
    optimal_vertices,
    read_only,
)
from .simplex import dual_certificate

DEFAULT_SEED = 0x5EED
# rows per block in ``run_coverage``; the records do not depend on it
BLOCK = 1024


@dataclass
class ExperimentConfig:
    """A study of ``lp`` at its own ``b``, ``truth_b``; ``targets``, its
    optimal set, is set at construction, which raises ``Unbounded`` when
    ``lp`` has no dual feasible basis.  A multinomial ``b_sampler`` must be
    centred at ``b``, or ``ValueError``."""

    lp: StandardLp
    b_sampler: object
    region: object
    rate_exponent: float = 0.5
    n_values: Sequence[int] = (1, 10, 100, 10000)
    replicates: int = 1000
    seed: int = DEFAULT_SEED
    name: str = "custom"
    targets: Polytope = field(init=False)

    def __post_init__(self):
        law, b = self.b_sampler, self.lp.b
        if isinstance(law, MultinomialLaw):
            centre = np.concatenate([law.probabilities, law.tail])
            if centre.shape != b.shape or np.abs(centre - b).max() > problem.residual_tol(b):
                raise ValueError(f"the multinomial b_sampler is centred at {centre.tolist()}, "
                                 f"not at the program's b {b.tolist()}")
        self.targets, _ = optimal_vertices(self.lp)

    @property
    def truth_b(self) -> np.ndarray:
        return self.lp.b


@dataclass(frozen=True)
class CoverageRow:
    n: int
    replicates: int
    covered: int
    coverage: float
    std_error: float
    failed: int


class ReplicateRecord(NamedTuple):
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
    lp = StandardLp(A, np.array([0.5, 0.5, 0.5]), np.array([0.0, 1.0, 1.0, 0.0]))
    from .quantiles import two_sided_normal_quantile

    half_width = two_sided_normal_quantile(0.05) / 2.0
    region = SegmentFamilyRegion((1.0, -1.0, 0.0), half_width, coverage_target=0.95)
    sampler = MultinomialLaw((0.5, 0.5), tail=(0.5,))
    return ExperimentConfig(lp=lp, b_sampler=sampler, region=region,
                            n_values=(1, 10, 100, 10000), name="ot2x2")


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

    sigma = np.diag([4.0, 1.0, 1.0, 3.0])
    region = EllipsoidRegion(sigma, level=0.95, support_indices=(0, 1, 2, 3))
    sampler = GaussianLaw(sigma, support_indices=(0, 1, 2, 3))
    config = ExperimentConfig(lp=lp, b_sampler=sampler, region=region, n_values=(50, 500),
                              name="mcf")
    targets = config.targets
    expected = [with_slacks(MCF_SOLUTION_1), with_slacks(MCF_SOLUTION_2)]
    for point in expected:
        gaps = np.abs(targets.vertices - point).max(axis=1) if len(targets) else [np.inf]
        if min(gaps) > problem.residual_tol():
            raise InstanceMismatch("a known optimal flow is not optimal for the encoding")
    return config


# the ready-made experiments by the name ``lpdist --experiment`` gives them
BUILT_IN = {"ot2x2": build_ot_2x2, "mcf": build_min_cost_flow}


def optimal_face_vertices(lp: StandardLp, result) -> list:
    """The solved vertex and the other vertices of its optimal face, as
    ``[(basis_indices, x), ...]``: the solved vertex first, then each vertex
    ``block_sets`` keeps on ``_face``'s family at cost zero, where every
    feasible basis ties, under its first basis in family order, less any
    within ``DEDUP_TOL`` of the solved vertex.  One entry means the optimum
    is unique.  Raises the ``LpError`` of a family that cannot be built."""
    cols, x_hat = result.basis.indices, result.x_hat
    face, family = _face(lp, cols)
    if family is None:
        return [(cols, x_hat)]
    sets = problem.block_sets(family, np.zeros(len(face)), lp.b[None, :])
    if sets.errors:
        return [(cols, x_hat)]
    kept, first, _ = sets.row(0)
    vertices = np.zeros((len(kept), lp.m))
    vertices[:, face] = kept
    far = (np.abs(vertices - x_hat).max(axis=1) > problem.DEDUP_TOL).nonzero()[0]
    return [(cols, x_hat)] + [(tuple(face[first[i]].tolist()), vertices[i]) for i in far.tolist()]


def _face(lp: StandardLp, cols: tuple) -> tuple:
    """``(face, family)`` of the optimal basis ``cols``: the read-only
    columns ``face`` whose reduced cost under ``cols``'s duals ties zero
    (``cols`` among them), and the ``BasisFamily`` of ``A[:, face]``, or
    None when ``face`` is ``cols`` alone.  The feasible bases of the family
    are the optimal bases at any rhs where ``cols`` is optimal, so both are
    ``b``-free and kept in the program's basis cache."""

    def build():
        slack = dual_certificate(lp, cols)[1]
        tied = np.abs(slack) <= problem.reduced_cost_tol(lp.c)
        tied[list(cols)] = True
        face = read_only(np.flatnonzero(tied))[0]
        return face, (BasisFamily(read_only(lp.A[:, face])[0]) if len(face) > lp.k else None)

    return lp.basis_cache.get(("face", cols), build)


def _sample_rows(config: ExperimentConfig, runs: list) -> tuple:
    """``(rhs, picks)`` of the replicates of ``runs``, each a sample size's
    ``(n_index, n, rate, replicates)``, in order: each replicate's rhs, drawn
    from its own Philox stream at counter ``[0, 0, n_index, replicate]``,
    and the uniform that stream draws next, from which it picks its vertex.
    Each run is one ``sample_rows`` call of the law."""
    count = sum(len(run[3]) for run in runs)
    rhs, picks = np.empty((count, config.lp.k)), np.empty(count)
    start = 0
    for n_index, n, rate, replicates in runs:
        at = slice(start, start + len(replicates))
        streams = philox_streams(_philox_key(config.seed), (0, 0, n_index), replicates)
        rhs[at] = config.b_sampler.sample_rows(config.truth_b, n, rate,
                                               _then_pick(streams, picks[at]))
        start = at.stop
    return rhs, picks


def _then_pick(streams, picks: np.ndarray):
    """Each generator of ``streams`` in turn; when the law asks for the next,
    the uniform the last one draws next goes to its entry of ``picks``.
    ``philox_streams`` resets one generator, so each pick is drawn before
    the next stream starts."""
    for i, rng in enumerate(streams):
        yield rng
        picks[i] = rng.random()


def _coverage_block(config: ExperimentConfig, runs: list) -> tuple:
    """``(covered, hits, which, bases, errors)``, the coverage of each
    replicate of ``runs`` as columns in ``_sample_rows``'s order, each row
    with its own ``n`` and rate: the ``(N,)`` mask ``covered``, the ``(N,
    T)`` mask of the targets each row's set contains, each row's index
    ``which`` into the list ``bases`` of selection bases (-1 for a row with
    none) and the ``LpError`` of each row that fails, by row.

    The block's confidence sets come from one ``confidence_rows`` call, and
    each target is tested once over the block, each row in its own
    selection basis; each row's result is the one the replicate gets on its
    own from its stream, ``optimal_vertices`` at its rhs, the vertex its
    uniform picks, ``selection_basis``, ``map_region`` and ``contains``.
    """
    rates = np.repeat([run[2] for run in runs], [len(run[3]) for run in runs])
    rhs, picks = _sample_rows(config, runs)
    x_hat, which, mapped, errors = confidence_rows(config.lp, config.region, rhs, picks)
    projections = np.zeros((len(mapped), config.lp.m))
    for i, basis in enumerate(image.basis for image in mapped):
        try:
            projections[i] = _projection(config, basis)
        except LpError as exc:
            at = (which == i).nonzero()[0]
            errors.update(dict.fromkeys(at.tolist(), exc))
            which[at] = -1
    hits = np.zeros((len(rhs), len(config.targets)), dtype=bool)
    covered = np.zeros(len(rhs), dtype=bool)
    ok = (which >= 0).nonzero()[0]
    if len(ok):
        rows, rate, centers = RowBases.of(mapped, which[ok]), rates[ok], x_hat[ok]
        hit = np.array([contains_rows(rows, rate, centers, v) for v in config.targets.vertices])
        inside = hit.any(axis=0)
        miss = (~inside).nonzero()[0]
        if len(miss):  # each row's own projection
            inside[miss] = contains_rows(rows.take(miss), rate[miss], centers[miss],
                                         projections[which[ok[miss]]])
        hits[ok], covered[ok] = hit.T, inside
    return covered, hits, which, [image.basis.indices for image in mapped], errors


def _projection(config: ExperimentConfig, basis: Basis) -> np.ndarray:
    """The truth's basic point in ``basis`` projected onto the targets, kept
    in ``config.lp.at_b``: the targets are the program's optimal set."""
    key = ("projection", basis.indices)
    if key not in config.lp.at_b:
        anchor = basic_solution(config.lp, basis).x
        config.lp.at_b[key] = min_norm_point(config.targets, anchor)[0]
    return config.lp.at_b[key]


def run_coverage(config: ExperimentConfig, *, n_values=None, replicates=None,
                 keep_log: bool = False) -> CoverageReport:
    """Coverage of the target optimal set across replicates, per sample size.

    A replicate counts as covered when the confidence set contains any
    enumerated target vertex or the projection of its reported basic
    solution onto the target set.  Solver failures are logged, counted
    as non-covered and counted in ``failed``.

    The call's replicates, sample size by sample size, are sampled, solved
    and tested as blocks of up to ``BLOCK`` rows, so a block may span
    sample sizes.  Each replicate has its own random stream, and each step
    treats a row as it would treat it alone, so a replicate's record
    depends neither on ``replicates`` nor on the block it ran in.
    """
    n_values = [_whole("sample size", n)
                for n in (config.n_values if n_values is None else n_values)]
    replicates = _whole("replicates", config.replicates if replicates is None else replicates)
    if replicates < 1 or min(n_values, default=1) < 1:
        raise ValueError("replicates and sample sizes must be positive")
    if not n_values:
        return CoverageReport(rows=[])
    rates = [float(n) ** config.rate_exponent for n in n_values]
    total = len(n_values) * replicates
    blocks = []  # row r is replicate r % replicates at n_values[r // replicates]
    for start in range(0, total, BLOCK):
        stop = min(start + BLOCK, total)
        runs = [(i, n_values[i], rates[i], range(max(start - i * replicates, 0),
                                                 min(stop - i * replicates, replicates)))
                for i in range(start // replicates, (stop - 1) // replicates + 1)]
        blocks.append(_coverage_block(config, runs))
    covered = np.concatenate([block[0] for block in blocks])
    failed = np.concatenate([block[2] for block in blocks]) < 0
    rows = []
    for n, hit, lost in zip(n_values, covered.reshape(-1, replicates).sum(axis=1).tolist(),
                            failed.reshape(-1, replicates).sum(axis=1).tolist()):
        coverage = hit / replicates
        rows.append(CoverageRow(
            n=n, replicates=replicates, covered=hit, coverage=coverage,
            std_error=math.sqrt(max(coverage * (1.0 - coverage), 0.0) / replicates),
            failed=lost,
        ))
    if not keep_log:
        return CoverageReport(rows=rows)
    columns = zip(*map(_record_columns, blocks))
    # ReplicateRecord._make without its Python-level length check
    log = list(map(tuple.__new__, repeat(ReplicateRecord), zip(
        chain.from_iterable(repeat(n, replicates) for n in n_values),
        chain.from_iterable(repeat(range(replicates), len(n_values))),
        covered.tolist(), *map(chain.from_iterable, columns))))
    return CoverageReport(rows=rows, log=log)


def _record_columns(block: tuple) -> tuple:
    """The ``covered_targets``, ``basis`` and ``error`` of each row of
    ``_coverage_block``'s ``block``, as three iterables; each distinct hit
    pattern's ``covered_targets`` is made once."""
    covered, hits, which, bases, errors = block
    pattern = np.empty(len(covered), dtype=np.intp)
    targets = []
    for key, at in group_rows(hits, np.arange(len(covered))):
        pattern[at] = len(targets)
        targets.append(tuple(np.flatnonzero(key).tolist()))
    error = [None] * len(covered)
    for row, exc in errors.items():
        error[row] = str(exc)
    return (map(targets.__getitem__, pattern.tolist()),
            map([*bases, ()].__getitem__, which.tolist()), error)


def _whole(name: str, value) -> int:
    """``value`` as a Python int, or ``ValueError`` naming ``name`` when it
    is not a whole number."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, not {value}")
    return int(value)


def kolmogorov_smirnov(sample_a, sample_b) -> float:
    """Two-sample KS distance: sup over thresholds of the ECDF gap."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def run_limit_comparison(config: ExperimentConfig, n: int, draws: int, *,
                         statistic: str = "distance") -> dict:
    """KS distance between the finite-sample statistic and its limit law.

    ``statistic`` is ``set_statistic``'s "distance" or "hausdorff", read on
    both sides from one block of optimal sets: the finite side's from one
    ``optimal_rows`` call over the draws' right-hand sides, about the one
    target vertex ``x*`` and scaled by the rate; the limit side's from
    ``sample_unique_limit``, about the origin.  Returns the KS distance
    along with both sample means.
    """
    if statistic not in ("distance", "hausdorff"):
        raise ValueError("statistic must be 'distance' or 'hausdorff'")
    n, draws = _whole("n", n), _whole("draws", draws)
    for name, value in (("n", n), ("draws", draws)):
        if value < 1:
            raise ValueError(f"{name} must be positive, not {value}")
    if len(config.targets) != 1:
        raise InstanceMismatch("limit comparison needs a unique target optimum")
    rate = float(n) ** config.rate_exponent
    # draw i comes from its own Philox stream at counter [1, 0, 0, i]
    streams = philox_streams(_philox_key(config.seed), (1, 0, 0), range(draws))
    rhs = config.b_sampler.sample_rows(config.truth_b, n, rate, streams)
    x_star = config.targets.vertices[0]
    finite_sets = problem.optimal_rows(config.lp, rhs).check()
    finite = rate * set_statistic(finite_sets, x_star, statistic)
    noise = config.b_sampler.limit_noise(config.seed, config.lp.k)
    limit = sample_unique_limit(config.lp, x_star, noise, draws).statistic(statistic)
    return {
        "n": n,
        "draws": draws,
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
    if truth_b is not None:
        lp = lp.with_rhs(truth_b)
    sampler = build_kind(LAWS, b_sampler, "b_sampler")
    if not hasattr(sampler, "sample_rows"):
        raise ValueError(f"{sampler.kind} b_sampler spec: the law has no finite-sample form")
    region = region_from_dict(region)
    for part in (sampler, region):
        check_support(getattr(part, "support_indices", None), lp.k)
    return ExperimentConfig(
        lp=lp, b_sampler=sampler, region=region, rate_exponent=float(rate_exponent),
        n_values=tuple(_whole("sample size", v) for v in n_values),
        replicates=_whole("replicates", replicates), seed=int(seed), name=name,
    )
