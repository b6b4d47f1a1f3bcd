from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.stats

from lpdist import Basis, StandardLp, optimal_vertices, solve
from lpdist.confidence import EllipsoidRegion, confidence_set, map_region
from lpdist.errors import InstanceMismatch, SingularBasis
from lpdist.experiments import (
    DEFAULT_SEED,
    MCF_CAPACITIES,
    MCF_SOLUTION_1,
    MCF_SOLUTION_2,
    build_min_cost_flow,
    build_ot_2x2,
    config_from_dict,
    kolmogorov_smirnov,
    optimal_face_vertices,
    run_coverage,
    run_limit_comparison,
    selection_basis,
    singleton_coordinates,
)
from lpdist.limits import GaussianLaw, MultinomialLaw
from lpdist.problem import lp_to_dict, support

SOL1_BASIS = (0, 1, 2, 3, 5, 6, 7, 9, 11, 13, 15, 16, 17)
SOL2_BASIS = (0, 1, 2, 3, 5, 6, 7, 9, 11, 13, 14, 16, 17)


def _with_slacks(flow):
    flow = np.asarray(flow, dtype=float)
    return np.concatenate([flow, np.array(MCF_CAPACITIES) - flow])


# ----------------------------------------------------------- configurations

def test_transport_config_contents():
    cfg = build_ot_2x2()
    assert cfg.name == "ot2x2"
    assert cfg.seed == DEFAULT_SEED == 0x5EED
    assert cfg.n_values == (1, 10, 100, 10000)
    assert cfg.replicates == 1000
    assert len(cfg.targets) == 1
    assert np.allclose(cfg.targets.vertices[0], [0.5, 0.0, 0.0, 0.5])
    assert cfg.region.kind == "segment"
    assert np.array_equal(cfg.region.direction, [1.0, -1.0, 0.0])
    assert abs(cfg.region.half_width - 0.979981992270027) < 1e-9


def test_truth_and_targets_are_read_from_the_program():
    cfg = build_min_cost_flow()
    assert [f.name for f in fields(cfg) if f.init] == [
        "lp", "b_sampler", "region", "rate_exponent", "n_values", "replicates", "seed", "name"]
    assert cfg.truth_b is cfg.lp.b
    with pytest.raises(AttributeError):
        cfg.truth_b = cfg.lp.b
    b = cfg.lp.b.copy()
    b[0] += 1.0  # one more unit leaves node 1
    moved = replace(cfg, lp=cfg.lp.with_rhs(b))
    assert moved.truth_b.tobytes() == b.tobytes()
    fresh, _ = optimal_vertices(StandardLp(cfg.lp.A, b, cfg.lp.c))
    assert moved.targets.vertices.tobytes() == fresh.vertices.tobytes()
    assert not np.array_equal(moved.targets.vertices, cfg.targets.vertices)
    # the transport law draws frequencies around (0.5, 0.5), whatever the program's b
    ot = build_ot_2x2()
    with pytest.raises(ValueError, match=r"centred at \[0.5, 0.5, 0.5\]"):
        replace(ot, lp=ot.lp.with_rhs([0.6, 0.4, 0.5]))


def test_network_config_gate_and_targets():
    cfg = build_min_cost_flow()
    assert len(cfg.targets) == 2
    v1 = _with_slacks(MCF_SOLUTION_1)
    v2 = _with_slacks(MCF_SOLUTION_2)
    # vertices are stored lexicographically: the smaller flow on arc 3->4 first
    assert np.allclose(cfg.targets.vertices[0], v2, atol=1e-9)
    assert np.allclose(cfg.targets.vertices[1], v1, atol=1e-9)
    # equal objective value for both flows
    assert abs(float(cfg.lp.c @ v1) - 150.0) < 1e-9
    assert abs(float(cfg.lp.c @ v2) - 150.0) < 1e-9
    # both are non-degenerate vertices: supports have full basis size
    assert len(support(v1)) == cfg.lp.k
    assert len(support(v2)) == cfg.lp.k
    assert cfg.region.kind == "ellipsoid"
    assert cfg.region.support_indices == (0, 1, 2, 3)


# ---------------------------------------------------------------- selection

def test_selection_basis_completion(ot_lp):
    # non-degenerate point: the support is already a basis
    assert selection_basis(ot_lp, np.array([0.5, 0.05, 0.0, 0.45])).indices == (0, 1, 3)
    # degenerate points complete with the smallest independent column indices
    assert selection_basis(ot_lp, np.array([0.5, 0.5, 0.0, 0.0])).indices == (0, 1, 2)
    assert selection_basis(ot_lp, np.array([0.0, 0.0, 0.5, 0.5])).indices == (0, 2, 3)
    assert selection_basis(ot_lp, np.array([0.5, 0.0, 0.0, 0.5])).indices == (0, 1, 3)


def test_selection_basis_rejects_dependent_support():
    lp = StandardLp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    with pytest.raises(SingularBasis):
        selection_basis(lp, np.array([0.5, 0.5]))


def test_selection_basis_completes_by_the_factor_pivot_rule():
    # (0, 1) has full rank but an LU pivot of 1e-12, below the program's rank_tol
    lp = StandardLp([[1.0, 1.0, 0.0], [0.0, 1e-12, 1.0]], [1.0, 1.0], [0.0, 0.0, 0.0])
    basis = selection_basis(lp, np.array([1.0, 0.0, 0.0]))
    assert basis.indices == (0, 2)
    assert map_region(lp, basis, EllipsoidRegion(np.eye(2), level=0.95)).basis == basis


def test_optimal_face_unique_case(ot_lp):
    result = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    candidates = optimal_face_vertices(ot_lp.with_rhs([0.55, 0.45, 0.5]), result)
    assert len(candidates) == 1
    assert candidates[0][0] == result.basis.indices


def test_optimal_face_two_sided_tie():
    cfg = build_min_cost_flow()
    result = solve(cfg.lp)
    candidates = optimal_face_vertices(cfg.lp, result)
    assert len(candidates) == 2
    bases = {c[0] for c in candidates}
    assert bases == {SOL1_BASIS, SOL2_BASIS}
    points = {tuple(np.round(c[1], 9)) for c in candidates}
    assert tuple(_with_slacks(MCF_SOLUTION_1)) in points
    assert tuple(_with_slacks(MCF_SOLUTION_2)) in points


# ------------------------------------------------------------ coverage runs

def test_coverage_report_schema_and_determinism():
    cfg = build_ot_2x2()
    rep1 = run_coverage(cfg, n_values=(10,), replicates=60, keep_log=True)
    rep2 = run_coverage(cfg, n_values=(10,), replicates=60)
    assert len(rep1.rows) == 1
    row = rep1.rows[0]
    assert row.n == 10 and row.replicates == 60
    assert row.covered == rep2.rows[0].covered
    assert abs(row.coverage - row.covered / 60.0) < 1e-12
    expected_se = np.sqrt(row.coverage * (1 - row.coverage) / 60.0)
    assert abs(row.std_error - expected_se) < 1e-12
    assert len(rep1.log) == 60
    assert sum(r.covered for r in rep1.log) == row.covered
    assert rep2.log == []


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_coverage_records_do_not_depend_on_the_block(build):
    cfg = build()
    short = run_coverage(cfg, replicates=10, keep_log=True)
    long = run_coverage(cfg, replicates=75, keep_log=True)
    for n in cfg.n_values:
        assert [rec for rec in short.log if rec.n == n] == \
            [rec for rec in long.log if rec.n == n and rec.replicate < 10]


def test_coverage_seed_sensitivity():
    cfg = build_ot_2x2()
    a = run_coverage(cfg, n_values=(1,), replicates=80, keep_log=True)
    b = run_coverage(replace(cfg, seed=1234), n_values=(1,), replicates=80, keep_log=True)
    flags_a = [r.covered for r in a.log]
    flags_b = [r.covered for r in b.log]
    assert flags_a != flags_b  # replicate streams depend on the seed


def test_every_replicate_pins_two_coordinates():
    """Degenerate 2x2 plans always leave exactly two singleton coordinates."""
    cfg = build_ot_2x2()
    rng_master = np.random.Generator(np.random.Philox(key=17, counter=[0, 0, 0, 0]))
    for n in (1, 10):
        for _ in range(40):
            rng = np.random.Generator(
                np.random.Philox(key=17, counter=[0, 0, 0, int(rng_master.integers(1 << 30))]))
            rate = np.sqrt(float(n))
            b_n = cfg.b_sampler.sample(cfg.truth_b, n, rate, rng)
            result = solve(cfg.lp.with_rhs(b_n))
            basis = selection_basis(cfg.lp, result.x_hat)
            cs = confidence_set(result, rate, map_region(cfg.lp, basis, cfg.region))
            assert len(singleton_coordinates(cs)) == 2


def test_network_coverage_alternates_between_optima():
    cfg = build_min_cost_flow()
    rep = run_coverage(cfg, n_values=(500,), replicates=120, keep_log=True)
    counts = {0: 0, 1: 0}
    for record in rep.log:
        for t in record.covered_targets:
            counts[t] += 1
    assert counts[0] > 6 and counts[1] > 6
    assert rep.rows[0].coverage > 0.85


# ---------------------------------------------------------------- samplers

def test_multinomial_marginal_sampler():
    sampler = MultinomialLaw((0.5, 0.5), tail=(0.5,))
    rng = np.random.Generator(np.random.Philox(key=2, counter=[0, 0, 0, 0]))
    b = sampler.sample(np.array([0.5, 0.5, 0.5]), 10, np.sqrt(10.0), rng)
    assert b.shape == (3,)
    assert abs(b[0] + b[1] - 1.0) < 1e-12  # frequencies sum to one
    assert b[2] == 0.5
    assert (np.round(np.array(b[:2]) * 10) == np.array(b[:2]) * 10).all()
    spec = sampler.to_dict()
    assert spec["kind"] == "multinomial_marginal"
    noise = sampler.limit_noise(seed=3, dim=3)
    g = noise.draw(0)
    assert abs(g[0] + g[1]) < 1e-12 and g[2] == 0.0


def test_gaussian_rhs_sampler():
    sigma = np.diag([4.0, 1.0])
    sampler = GaussianLaw(sigma, support_indices=(0, 2))
    truth = np.array([1.0, 2.0, 3.0])
    rng = np.random.Generator(np.random.Philox(key=4, counter=[0, 0, 0, 0]))
    draws = np.array([sampler.sample(truth, 100, 10.0, rng) for _ in range(4000)])
    assert np.allclose(draws[:, 1], 2.0)  # off-support coordinate untouched
    assert abs(draws[:, 0].mean() - 1.0) < 0.02
    assert abs(draws[:, 0].std() - 2.0 / 10.0) < 0.01
    spec = sampler.to_dict()
    assert spec["kind"] == "gaussian"
    noise = sampler.limit_noise(seed=1, dim=3)
    assert noise.draw(0)[1] == 0.0


# ------------------------------------------------------------ distributional

def test_ks_statistic_matches_reference():
    rng = np.random.Generator(np.random.Philox(key=31, counter=[0, 0, 0, 0]))
    a = rng.standard_normal(300)
    b = rng.standard_normal(280) + 0.2
    mine = kolmogorov_smirnov(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert abs(mine - ref) < 1e-12
    assert kolmogorov_smirnov(a, a) == 0.0
    assert kolmogorov_smirnov([1.0, 2.0], [5.0, 6.0]) == 1.0


def test_limit_comparison_transport():
    cfg = build_ot_2x2()
    out = run_limit_comparison(replace(cfg, seed=3), 400, 150)
    assert out["n"] == 400 and out["draws"] == 150
    assert 0.0 <= out["ks_distance"] <= 0.25
    assert abs(out["finite_mean"] - out["limit_mean"]) < 0.12
    with pytest.raises(ValueError):
        run_limit_comparison(cfg, 400, 10, statistic="median")


def test_limit_comparison_hausdorff_variant():
    cfg = build_ot_2x2()
    out = run_limit_comparison(replace(cfg, seed=3), 400, 60, statistic="hausdorff")
    # for a unique optimum the set distance dominates the point distance
    assert out["ks_distance"] <= 0.5
    assert out["limit_mean"] > 0.0


def test_limit_comparison_requires_unique_target():
    cfg = build_min_cost_flow()
    with pytest.raises(InstanceMismatch):
        run_limit_comparison(cfg, 100, 5)


# ----------------------------------------------------------- custom configs

def test_config_from_dict_round_trip():
    base = build_ot_2x2()
    data = {
        "name": "custom-transport",
        "lp": lp_to_dict(base.lp),
        "b_sampler": base.b_sampler.to_dict(),
        "region": {"kind": "segment", "direction": [1.0, -1.0, 0.0],
                   "half_width": base.region.half_width},
        "n_values": [10],
        "replicates": 30,
        "seed": 7,
    }
    cfg = config_from_dict(data)
    assert cfg.name == "custom-transport"
    mine = run_coverage(cfg)
    reference = run_coverage(replace(base, seed=7), n_values=(10,), replicates=30)
    assert mine.rows[0].covered == reference.rows[0].covered


def test_config_from_dict_rejects_unknown_sampler():
    base = build_ot_2x2()
    with pytest.raises(ValueError):
        config_from_dict({
            "lp": lp_to_dict(base.lp),
            "b_sampler": {"kind": "cauchy"},
            "region": {"kind": "segment", "direction": [1.0, -1.0, 0.0],
                       "half_width": 1.0},
        })


def test_coverage_runs_no_simplex(monkeypatch):
    """Coverage takes each replicate's optimal set from the program's family:
    with no pivot allowed, no block simplex and no face family, every
    record is what it was."""
    from lpdist import experiments, simplex

    cfg = build_ot_2x2()
    plain = run_coverage(cfg, n_values=(1, 10), replicates=40, keep_log=True)

    def refuse(*args, **kwargs):
        raise AssertionError("coverage called the simplex")

    monkeypatch.setattr(simplex, "_pivot_budget", lambda k, n: 0)
    monkeypatch.setattr(simplex, "solve_block", refuse)
    assert not hasattr(experiments, "solve_rows")
    monkeypatch.setattr(experiments, "_face", refuse)
    again = run_coverage(cfg, n_values=(1, 10), replicates=40, keep_log=True)
    assert again == plain and all(rec.error is None for rec in again.log)


def test_coverage_logs_replicates_whose_rhs_is_not_finite():
    from dataclasses import replace

    cfg = build_ot_2x2()
    plain = run_coverage(cfg, n_values=(1, 10), replicates=20, keep_log=True)

    class NanOnce:
        """The built-in sampler, except that draw 24 (n = 10, replicate 3) is NaN."""

        def __init__(self):
            self.calls = 0

        def sample_rows(self, truth_b, n, rate, streams):
            rows = []
            for rng in streams:
                b = cfg.b_sampler.sample(truth_b, n, rate, rng)
                self.calls += 1
                if self.calls == 24:
                    b = np.array(b, dtype=float)
                    b[0] = np.nan
                rows.append(b)
            return np.array(rows)

    report = run_coverage(replace(cfg, b_sampler=NanOnce()), n_values=(1, 10),
                          replicates=20, keep_log=True)
    failed = [rec for rec in report.log if rec.error is not None]
    assert [(rec.n, rec.replicate) for rec in failed] == [(10, 3)]
    assert "NaN" in failed[0].error and not failed[0].covered
    assert [rec for rec in report.log if rec.error is None] == [
        rec for rec in plain.log if (rec.n, rec.replicate) != (10, 3)]
    assert [row.replicates for row in report.rows] == [20, 20]
    assert [row.failed for row in report.rows] == [0, 1]


@pytest.mark.parametrize("n", [10.5, np.float64(2.5), float("nan"), float("inf")])
def test_run_coverage_rejects_a_sample_size_that_is_not_whole(n):
    with pytest.raises(ValueError, match=f"sample size must be a whole number, not {n}"):
        run_coverage(build_ot_2x2(), n_values=[1, n], replicates=3)
    with pytest.raises(ValueError, match="sample size must be a whole number"):
        run_coverage(replace(build_ot_2x2(), n_values=(n,)), replicates=3)
    with pytest.raises(ValueError, match=f"replicates must be a whole number, not {n}"):
        run_coverage(build_ot_2x2(), n_values=[1], replicates=n)


def test_run_coverage_carries_a_whole_sample_size_as_an_int():
    cfg = build_ot_2x2()
    plain = run_coverage(cfg, n_values=[10], replicates=12, keep_log=True)
    for n in (10.0, np.float64(10.0), np.int64(10)):
        report = run_coverage(cfg, n_values=[n], replicates=12, keep_log=True)
        assert report == plain
        assert type(report.rows[0].n) is int
        assert {type(rec.n) for rec in report.log} == {int}


def test_a_custom_config_rejects_a_sample_size_that_is_not_whole():
    data = {"lp": lp_to_dict(build_ot_2x2().lp),
            "b_sampler": {"kind": "multinomial_marginal", "probabilities": [0.5, 0.5],
                          "tail": [0.5]},
            "region": {"kind": "segment", "direction": [1, -1, 0], "half_width": 0.98},
            "n_values": [10.5]}
    with pytest.raises(ValueError, match="sample size must be a whole number, not 10.5"):
        config_from_dict(data)
    with pytest.raises(ValueError, match="replicates must be a whole number, not 20.9"):
        config_from_dict({**data, "n_values": [10], "replicates": 20.9})


@pytest.mark.parametrize("n", [10.5, np.float64(200.5)])
def test_run_limit_comparison_rejects_an_n_that_is_not_whole(n):
    with pytest.raises(ValueError, match=f"n must be a whole number, not {n}"):
        run_limit_comparison(build_ot_2x2(), n, 20)


def test_run_limit_comparison_carries_a_whole_n_as_an_int():
    cfg = build_ot_2x2()
    plain = run_limit_comparison(cfg, 200, 40)
    for n in (200.0, np.float64(200.0), np.int64(200)):
        out = run_limit_comparison(cfg, n, 40)
        assert repr(out) == repr(plain) and type(out["n"]) is int


def test_run_coverage_of_no_sample_sizes_is_an_empty_report():
    report = run_coverage(build_ot_2x2(), n_values=[], replicates=3, keep_log=True)
    assert report.rows == [] and report.log == []
