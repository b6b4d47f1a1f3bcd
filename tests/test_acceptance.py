"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance, so ``pytest -v`` prints one pass/fail line per guarantee.  The
random-instance sweeps pin their generator keys so every run checks the
same instances.
"""
import math
from dataclasses import replace

import numpy as np

from lpdist import StandardLp, solve, optimal_vertices, stability_report
from lpdist.confidence import ConfidenceSet, coordinate_interval, map_region, selection_basis
from lpdist.experiments import (
    build_min_cost_flow,
    build_ot_2x2,
    run_coverage,
    run_limit_comparison,
    singleton_coordinates,
)
from lpdist.geometry import (
    Polytope,
    SphereGrid,
    hausdorff,
    min_norm_point,
    support_function,
)
from lpdist.limits import distance_statistic, hadamard_quotient_check, sample_unique_limit
from lpdist.problem import basic_solution, enumerate_feasible_bases
from conftest import transport_lp

MEAN_LIMIT_DISTANCE = 0.5641895835477563  # closed form for the transport limit


def test_transport_coverage_matches_reference_table():
    """2x2 transport: empirical coverage per sample size inside the reference windows."""
    report = run_coverage(replace(build_ot_2x2(), seed=7))
    windows = {1: (0.480, 0.048), 10: (0.981, 0.013),
               100: (0.922, 0.026), 10000: (0.950, 0.021)}
    for row in report.rows:
        center, half = windows[row.n]
        assert abs(row.coverage - center) <= half, (row.n, row.coverage)


def test_transport_confidence_intervals_at_n20():
    """2x2 transport at n=20, observed marginals (0.55, 0.45): interval table."""
    config = build_ot_2x2()
    result = solve(config.lp.with_rhs(np.array([0.55, 0.45, 0.5])))
    basis = selection_basis(config.lp, result.x_hat)
    mapped = map_region(config.lp, basis, config.region)
    cs = ConfidenceSet(result.x_hat, math.sqrt(20.0), mapped)
    assert singleton_coordinates(cs) == [0, 2]
    assert coordinate_interval(cs, 0) == (0.5, 0.5)
    assert coordinate_interval(cs, 2) == (0.0, 0.0)
    for coord, (lo, hi) in ((1, (-0.169, 0.269)), (3, (0.231, 0.669))):
        got_lo, got_hi = coordinate_interval(cs, coord)
        assert abs(got_lo - lo) <= 1e-3 and abs(got_hi - hi) <= 1e-3, (coord, got_lo, got_hi)


def test_network_flow_coverage_splits_across_tied_optima():
    """Min-cost flow with two tied optima: near-nominal coverage, both vertices hit."""
    config = build_min_cost_flow()
    assert len(config.targets) == 2
    for vertex in config.targets.vertices:
        assert abs(config.lp.c @ vertex - 150.0) <= 1e-8 * 151.0
    report = run_coverage(config, keep_log=True)
    for row in report.rows:
        assert row.coverage >= 0.92, (row.n, row.coverage)
    records = [rec for rec in report.log if rec.n == 500]
    hits = [sum(1 for rec in records if t in rec.covered_targets) for t in (0, 1)]
    assert min(hits) >= 0.05 * len(records), hits


def _random_bounded_instance(rng):
    """Full-rank instance, feasible by construction and bounded via a dual-feasible cost."""
    while True:
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k + 1, 11))
        A = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(A) < k:
            continue
        b = A @ rng.uniform(0.2, 2.0, size=m)
        y = rng.standard_normal(k)
        s = np.abs(rng.standard_normal(m))
        s[rng.random(m) < 0.3] = 0.0  # force degenerate reduced-cost ties
        return StandardLp(A, b, c=A.T @ y + s)


def test_simplex_recovers_enumerated_optimum_on_random_instances():
    """500 random bounded instances: solver basis and value match full enumeration."""
    rng = np.random.Generator(np.random.Philox(key=41, counter=[0, 0, 0, 0]))
    for _ in range(500):
        lp = _random_bounded_instance(rng)
        result = solve(lp)
        _, bases = optimal_vertices(lp)
        best = min(float(lp.c @ basic_solution(lp, bset).x) for bset in bases)
        assert result.basis in bases
        assert abs(result.objective - best) <= 2e-8 * (1.0 + abs(best))


def test_stability_radii_certify_basis_and_lipschitz_bounds():
    """Perturbations inside the certified radius keep bases and obey both Lipschitz bounds."""
    third = np.full(3, 1.0 / 3.0)
    cases = [
        (StandardLp(np.eye(2), [1.0, 2.0], [1.0, 1.0]), np.array([1.0, 2.0])),
        (build_ot_2x2().lp, np.full(4, 0.25)),
        (transport_lp(third, third, np.ones(9)), np.full(9, 1.0 / 9.0)),
    ]
    for lp, slater in cases:
        rep = stability_report(lp, slater)
        feasible0 = set(enumerate_feasible_bases(lp))
        _, optimal0 = optimal_vertices(lp)
        optimal0 = set(optimal0)
        points0 = {bset: basic_solution(lp, bset).x for bset in feasible0}
        value0 = float(min(lp.c @ x for x in points0.values()))
        rng = np.random.Generator(np.random.Philox(key=5150, counter=[0, 0, 0, 0]))
        for _ in range(200):
            u = rng.standard_normal(lp.k)
            u /= np.linalg.norm(u)
            delta = rep.delta_star * u * rng.uniform(0.05, 0.999)
            lp_shift = lp.with_rhs(lp.b + delta)
            feasible = set(enumerate_feasible_bases(lp_shift))
            _, optimal = optimal_vertices(lp_shift)
            assert feasible <= feasible0
            assert set(optimal) <= optimal0
            norm = float(np.linalg.norm(delta))
            for bset in feasible:
                step = np.linalg.norm(basic_solution(lp_shift, bset).x - points0[bset])
                assert step <= rep.c1 * norm + 1e-12
            value = float(min(lp_shift.c @ basic_solution(lp_shift, bset).x
                              for bset in feasible))
            assert abs(value - value0) <= rep.c2 * norm + 1e-12


def test_directional_derivative_matches_auxiliary_program():
    """Difference quotients of the solution map agree with the auxiliary program's optimum."""
    rng = np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, 0]))
    ot = build_ot_2x2().lp
    xi = rng.standard_normal(3)
    xi /= np.linalg.norm(xi)
    radius = 0.11126046697815722  # certified stability radius of the transport instance
    err = hadamard_quotient_check(ot, xi, radius * 0.2, SphereGrid(4, 128))
    assert err <= 1e-6, err
    mcf = build_min_cost_flow().lp
    xi2 = rng.standard_normal(13)
    xi2 /= np.linalg.norm(xi2)
    radius2 = 0.09451978287028653  # certified stability radius of the flow instance
    err2 = hadamard_quotient_check(mcf, xi2, radius2 * 0.2, SphereGrid(18, 128))
    assert err2 <= 1e-6, err2


def test_scaled_distance_converges_to_its_limit_law():
    """Finite-sample scaled distance matches the sampled limit law (KS and mean)."""
    config = build_ot_2x2()
    outcome = run_limit_comparison(replace(config, seed=7), 10000, 2000, statistic="distance")
    assert outcome["ks_distance"] <= 0.05, outcome
    noise = config.b_sampler.limit_noise(7, config.lp.k)
    samples = sample_unique_limit(config.lp, config.targets.vertices[0], noise, 100_000)
    mean = float(np.mean([distance_statistic(s) for s in samples]))
    assert abs(mean - MEAN_LIMIT_DISTANCE) <= 0.01, mean


def test_min_norm_certificates_and_isometry_refinement():
    """Projection duality gap stays tiny; grid support-metric error shrinks as grids refine."""
    rng = np.random.Generator(np.random.Philox(key=42, counter=[0, 0, 0, 0]))
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        count = int(rng.integers(1, 13))
        poly = Polytope(rng.standard_normal((count, dim)) * rng.uniform(0.5, 3.0))
        z = rng.standard_normal(dim) * 2.0
        point, _ = min_norm_point(poly, z)
        q = poly.vertices - z
        x = point - z
        worst = max(worst, float(x @ x - (q @ x).min()))
    assert worst <= 1e-9, worst
    for dim in (2, 4):
        rng = np.random.Generator(np.random.Philox(key=43 + dim, counter=[0, 0, 0, 0]))
        p = Polytope(rng.standard_normal((6, dim)))
        q = Polytope(rng.standard_normal((7, dim)) + 0.3)
        true = hausdorff(p, q)
        errors = []
        for expo in range(8, 13):
            grid = SphereGrid(dim, 2 ** expo)
            est = max(abs(support_function(p, a) - support_function(q, a))
                      for a in grid.directions)
            errors.append(true - est)
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(errors, errors[1:])), (dim, errors)
        assert errors[-1] < errors[0], (dim, errors)
