"""The coverage harness solves a sample size's replicates as one block.

Every record must equal the one the replicate gets on its own from the
public per-replicate calls: its own Philox stream, which draws the rhs and
then one uniform ``u``; ``optimal_vertices`` at that rhs; the pick of
vertex ``floor(u t)`` among its ``t`` vertices, ordered by their first
optimal basis; ``selection_basis``, ``map_region`` and ``contains``.  Rows
that fail must get their own error without disturbing the others.
"""
from dataclasses import replace

import numpy as np
import pytest

from lpdist import (
    BoxRegion,
    ConfidenceSet,
    StandardLp,
    basic_solution,
    contains,
    map_region,
    min_norm_point,
    optimal_vertices,
    selection_basis,
)
from lpdist import experiments, problem
from lpdist.errors import LpError, Unbounded
from lpdist.experiments import (
    BLOCK,
    ExperimentConfig,
    ReplicateRecord,
    build_min_cost_flow,
    build_ot_2x2,
    run_coverage,
)


def canonical_pick(lp, u):
    """Vertex ``floor(u t)`` of the ``t`` vertices of ``optimal_vertices(lp)``,
    each placed at the first optimal basis whose basic point is nearest it."""
    polytope, bases = optimal_vertices(lp)
    order = []
    for basis in bases:
        x = basic_solution(lp, basis).x
        nearest = int(np.abs(polytope.vertices - x).max(axis=1).argmin())
        if nearest not in order:
            order.append(nearest)
    assert sorted(order) == list(range(len(polytope)))
    return polytope.vertices[order[int(u * len(order))]]


def reference_record(config, n, n_index, replicate):
    """One replicate composed from the public calls, as before blocks."""
    rate = float(n) ** config.rate_exponent
    rng = np.random.Generator(np.random.Philox(key=config.seed,
                                               counter=[0, 0, n_index, replicate]))
    b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
    u = rng.random()
    try:
        x_hat = canonical_pick(config.lp.with_rhs(b_n), u)
        basis = selection_basis(config.lp, x_hat)
        cs = ConfidenceSet(center=np.array(x_hat, dtype=float), rate=rate,
                           mapped=map_region(config.lp, basis, config.region))
        projection, _ = min_norm_point(config.targets, basic_solution(config.lp, basis).x)
        hits = tuple(i for i, v in enumerate(config.targets.vertices) if contains(cs, v))
        return ReplicateRecord(n=n, replicate=replicate,
                               covered=bool(hits) or contains(cs, projection),
                               covered_targets=hits, basis=basis.indices)
    except LpError as exc:
        return ReplicateRecord(n=n, replicate=replicate, covered=False, covered_targets=(),
                               basis=(), error=str(exc))


def assert_records_match_reference(config, replicates):
    report = run_coverage(config, replicates=replicates, keep_log=True)
    expected = [reference_record(config, n, n_index, rep)
                for n_index, n in enumerate(config.n_values) for rep in range(replicates)]
    assert report.log == expected
    return report.log


@pytest.mark.parametrize("seed", [3, 11, 0x5EED])
@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_block_records_equal_the_per_replicate_composition(build, seed):
    assert_records_match_reference(replace(build(), seed=seed), 40)


def test_records_past_the_first_block_equal_the_composition():
    config = replace(build_ot_2x2(), n_values=(10,))
    report = run_coverage(config, replicates=BLOCK + 40, keep_log=True)
    for rep in range(BLOCK - 20, BLOCK + 40):
        assert report.log[rep] == reference_record(config, 10, 0, rep)


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_block_boundaries_across_sample_sizes_do_not_move_records(build, monkeypatch):
    config = build()
    logs = []
    for size in (7, 1024):
        monkeypatch.setattr(experiments, "BLOCK", size)
        logs.append(run_coverage(config, replicates=30, keep_log=True).log)
    assert logs[0] == logs[1]


def test_records_around_boundaries_inside_the_second_sample_size():
    # rows are laid out sample size first: the second size starts at row
    # BLOCK + 40, inside the second block, and the third block starts at
    # its replicate BLOCK - 40
    config = replace(build_ot_2x2(), n_values=(10, 100))
    replicates = BLOCK + 40
    report = run_coverage(config, replicates=replicates, keep_log=True)
    around = [(0, rep) for rep in range(replicates - 20, replicates)]
    around += [(1, rep) for rep in [*range(20), *range(BLOCK - 60, BLOCK - 20)]]
    for n_index, rep in around:
        n = config.n_values[n_index]
        assert report.log[n_index * replicates + rep] == reference_record(config, n, n_index, rep)


class MixedLaw:
    """Gaussian noise on every row, except that a uniform draw from the
    replicate's stream makes some rows NaN and puts -1 in the last entry
    of others."""

    def sample_rows(self, truth_b, n, rate, streams):
        rows = []
        for rng in streams:
            u = rng.random()
            b = np.asarray(truth_b, dtype=float) + rng.standard_normal(len(truth_b)) / rate
            if u < 0.2:
                b[0] = np.nan
            elif u < 0.4:
                b[-1] = -1.0
            rows.append(b)
        return np.array(rows)

    def sample(self, truth_b, n, rate, rng):
        return self.sample_rows(truth_b, n, rate, (rng,))[0]


def test_good_infeasible_and_nonfinite_rows_share_a_block():
    # the transport plan: a negative last marginal is infeasible
    config = replace(build_ot_2x2(), b_sampler=MixedLaw(), n_values=(100, 10000))
    log = assert_records_match_reference(config, 60)
    assert sum(rec.error is None for rec in log) > 40
    messages = {rec.error for rec in log if rec.error is not None}
    assert any("NaN" in msg for msg in messages)
    assert "no feasible basis" in messages


def test_unbounded_infeasible_and_nonfinite_rows_share_a_block():
    # x0 - x1 = b0, x2 = b1 with cost -x0: (1, 1, 0) is a descent ray at
    # every feasible rhs, and b1 < 0 is infeasible.  Unboundedness does not
    # depend on b, so one program cannot mix it with solved rows.
    lp = StandardLp([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0], [-1.0, 0.0, 0.0])
    settings = dict(b_sampler=MixedLaw(), region=BoxRegion([-1.0, -1.0], [1.0, 1.0]),
                    n_values=(100,), seed=5)
    with pytest.raises(Unbounded):  # the program has no optimal set to target
        ExperimentConfig(lp=lp, **settings)
    # so the config is built on the bounded cost +x0, and then runs lp's rows
    config = ExperimentConfig(lp=StandardLp(lp.A, lp.b, -lp.c), **settings)
    config.lp = lp
    log = assert_records_match_reference(config, 50)
    messages = [rec.error for rec in log]
    assert None not in messages
    assert any("dual feasible" in msg for msg in messages)
    assert any("NaN" in msg for msg in messages)
    assert "no feasible basis" in messages


def test_a_family_that_cannot_be_built_fails_its_rows(monkeypatch):
    # the min-cost flow's 8568 candidate blocks are more than this cap
    config = replace(build_min_cost_flow(), n_values=(50,))
    monkeypatch.setattr(problem, "ENUM_CAP", 10)
    log = assert_records_match_reference(config, 20)
    assert {rec.error for rec in log} == {"8568 candidate bases exceed the cap of 10"}
