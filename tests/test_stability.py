import math

import numpy as np
import pytest

from lpdist import StandardLp, stability_report
from lpdist.errors import DegenerateDenominator, InstanceTooLarge, NonFiniteData, NotSlater
from lpdist.problem import basic_solution, enumerate_feasible_bases, optimal_vertices
from lpdist.stability import check_basis_inclusion, check_hausdorff_lipschitz
from conftest import transport_lp

# frozen constants, derived once from the closed forms below and pinned here
OT_DELTA_B1 = 0.11126046697815722
OT_C1 = 2.246979603717467
THREES_DELTA_B0 = 0.1191282162428461
THREES_DELTA_B1 = 0.04145414644978479
THREES_C1 = 3.5133370916661355


def identity_lp():
    return StandardLp(np.eye(2), [1.0, 2.0], [1.0, 1.0])


def test_identity_instance_closed_form():
    """A = I has one basis, unit inverse norm, and dual vertex (1, 1)."""
    rep = stability_report(identity_lp(), np.array([1.0, 2.0]))
    assert rep.delta_b0 == math.inf  # no infeasible basic point exists
    assert abs(rep.delta_b1 - 1.0) < 1e-12
    assert abs(rep.tau - 1.0) < 1e-12
    assert abs(rep.c1 - 1.0) < 1e-12
    assert abs(rep.c2 - math.sqrt(2.0)) < 1e-12
    assert abs(rep.delta_star - 1.0) < 1e-12


def test_transport_instance_constants(ot_lp):
    rep = stability_report(ot_lp, np.full(4, 0.25))
    # every invertible 3-column block is feasible at uniform marginals
    assert rep.delta_b0 == math.inf
    assert abs(rep.delta_b1 - OT_DELTA_B1) < 1e-12
    assert abs(rep.tau - 0.5) < 1e-12
    assert abs(rep.c1 - OT_C1) < 1e-12
    assert abs(rep.c2 - math.sqrt(2.0)) < 1e-12
    assert rep.delta_star == rep.delta_b1  # the binding term here


def test_constant_cost_transport_constants(ones_3x3_lp):
    rep = stability_report(ones_3x3_lp, np.full(9, 1.0 / 9.0))
    assert abs(rep.delta_b0 - THREES_DELTA_B0) < 1e-12
    assert abs(rep.delta_b1 - THREES_DELTA_B1) < 1e-12
    assert abs(rep.tau - 1.0 / 3.0) < 1e-12
    assert abs(rep.c1 - THREES_C1) < 1e-12
    assert abs(rep.c2 - math.sqrt(3.0)) < 1e-12
    assert rep.delta_star == min(rep.delta_b0, rep.delta_b1, rep.tau / rep.c1)


def test_rhs_scaling_behaviour(ot_lp):
    """Doubling b doubles the positive-entry margin but not the inverse norms."""
    rep1 = stability_report(ot_lp, np.full(4, 0.25))
    scaled = StandardLp(ot_lp.A, 2.0 * ot_lp.b, ot_lp.c)
    rep2 = stability_report(scaled, np.full(4, 0.5))
    assert abs(rep2.tau - 2.0 * rep1.tau) < 1e-12
    assert abs(rep2.c1 - rep1.c1) < 1e-12
    assert abs(rep2.c2 - rep1.c2) < 1e-12
    assert abs(rep2.delta_b1 - 2.0 * rep1.delta_b1) < 1e-12


def test_slater_point_validation(ot_lp):
    with pytest.raises(NotSlater):
        stability_report(ot_lp, np.array([0.5, 0.0, 0.0, 0.5]))  # boundary point
    with pytest.raises(NotSlater):
        stability_report(ot_lp, np.full(4, 0.3))  # wrong marginals


def test_enumeration_cap():
    rng = np.random.Generator(np.random.Philox(key=3, counter=[0, 0, 0, 0]))
    A = rng.standard_normal((15, 40))
    x0 = np.full(40, 1.0)
    lp = StandardLp(A, A @ x0, np.zeros(40))
    with pytest.raises(InstanceTooLarge):
        stability_report(lp, x0)


def test_basis_inclusion_near_and_far(ot_lp):
    assert check_basis_inclusion(ot_lp, np.array([0.51, 0.49, 0.5]))
    assert check_basis_inclusion(ot_lp, ot_lp.b.copy())
    # asymmetric marginals still select a basis that was optimal at the center
    assert check_basis_inclusion(ot_lp, np.array([0.9, 0.1, 0.5]))


def test_basis_inclusion_fails_far_from_center():
    lp = StandardLp([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 2.0], [0.0, 0.0, 1.0])
    _, opt = optimal_vertices(lp)
    assert {b.indices for b in opt} == {(1, 2)}
    # swapping the rhs makes the originally infeasible basis optimal
    assert not check_basis_inclusion(lp, np.array([2.0, 1.0]))


def test_inclusions_inside_stability_radius(ot_lp):
    rep = stability_report(ot_lp, np.full(4, 0.25))
    feas0 = set(enumerate_feasible_bases(ot_lp))
    _, opt0 = optimal_vertices(ot_lp)
    opt0 = set(opt0)
    rng = np.random.Generator(np.random.Philox(key=88, counter=[0, 0, 0, 0]))
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        bp = ot_lp.b + rep.delta_star * rng.uniform(0.05, 0.99) * u
        assert set(enumerate_feasible_bases(ot_lp.with_rhs(bp))) <= feas0
        _, optp = optimal_vertices(ot_lp.with_rhs(bp))
        assert set(optp) <= opt0


def test_solution_map_lipschitz_bound(ot_lp):
    """Basic solutions of surviving bases move at most C1 per unit of rhs."""
    rep = stability_report(ot_lp, np.full(4, 0.25))
    rng = np.random.Generator(np.random.Philox(key=89, counter=[0, 0, 0, 0]))
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        delta = rep.delta_star * rng.uniform(0.05, 0.99) * u
        lpp = ot_lp.with_rhs(ot_lp.b + delta)
        for basis in enumerate_feasible_bases(lpp):
            step = np.linalg.norm(basic_solution(lpp, basis).x
                                  - basic_solution(ot_lp, basis).x)
            assert step <= rep.c1 * np.linalg.norm(delta) + 1e-12


def test_value_function_lipschitz_bound(ot_lp):
    rep = stability_report(ot_lp, np.full(4, 0.25))
    _, f0 = _optimal_value(ot_lp)
    rng = np.random.Generator(np.random.Philox(key=90, counter=[0, 0, 0, 0]))
    for _ in range(50):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        delta = rep.delta_star * rng.uniform(0.05, 0.99) * u
        _, fp = _optimal_value(ot_lp.with_rhs(ot_lp.b + delta))
        assert abs(fp - f0) <= rep.c2 * np.linalg.norm(delta) + 1e-12


def _optimal_value(lp):
    poly, bases = optimal_vertices(lp)
    vals = [float(lp.c @ basic_solution(lp, b).x) for b in bases]
    return poly, min(vals)


def test_hausdorff_lipschitz_ratio(ot_lp):
    # piecewise-linear solution map: the ratio is scale-free near the center
    base = np.array([0.55, 0.45, 0.5])
    direction = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    ratios = [check_hausdorff_lipschitz(ot_lp, base, base + eps * direction)
              for eps in (1e-2, 1e-3, 1e-4)]
    assert max(ratios) - min(ratios) < 1e-6
    rep = stability_report(ot_lp, np.full(4, 0.25))
    assert max(ratios) <= rep.c1 + 1e-9


def test_hausdorff_lipschitz_identity():
    lp = identity_lp()
    ratio = check_hausdorff_lipschitz(lp, np.array([1.0, 2.0]), np.array([1.3, 1.8]))
    assert abs(ratio - 1.0) < 1e-12  # solution map is the identity on b


def test_hausdorff_lipschitz_multi_optimum(ones_3x3_lp):
    b = ones_3x3_lp.b
    ratio = check_hausdorff_lipschitz(ones_3x3_lp, b, b + np.full(5, 1e-3))
    assert np.isfinite(ratio)
    assert ratio >= 0.0


def test_identical_rhs_rejected(ot_lp):
    with pytest.raises(DegenerateDenominator):
        check_hausdorff_lipschitz(ot_lp, ot_lp.b, ot_lp.b.copy())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_slater_point_is_rejected(ot_lp, bad):
    """A NaN passes every comparison check, so it is rejected before them."""
    point = np.full(4, 0.25)
    point[1] = bad
    with pytest.raises(NonFiniteData):
        stability_report(ot_lp, point)
    assert len(ot_lp.basis_cache) == 0
