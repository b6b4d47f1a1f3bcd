import numpy as np
import pytest

from lpdist import Basis, StandardLp, solve, verify_kkt
from lpdist.errors import Infeasible, SingularBasis, Unbounded
from lpdist.problem import basic_solution, optimal_vertices
from lpdist.simplex import dual_certificate


def test_worked_display_example(ot_lp):
    """Perturbed marginals (0.55, 0.45) pick out a unique non-degenerate plan."""
    lp = ot_lp.with_rhs([0.55, 0.45, 0.5])
    res = solve(lp)
    assert np.allclose(res.x_hat, [0.5, 0.05, 0.0, 0.45], atol=1e-12)
    assert res.basis.indices == (0, 1, 3)
    assert abs(res.objective - 0.05) < 1e-12
    assert verify_kkt(lp, res)


def test_degenerate_truth_instance(ot_lp):
    res = solve(ot_lp)
    assert np.allclose(res.x_hat, [0.5, 0.0, 0.0, 0.5], atol=1e-12)
    assert abs(res.objective) < 1e-12
    assert res.basis.indices in {(0, 1, 3), (0, 2, 3)}
    assert verify_kkt(ot_lp, res)


def test_solve_is_deterministic(ot_lp):
    lp = ot_lp.with_rhs([0.52, 0.48, 0.5])
    a = solve(lp)
    b = solve(lp)
    assert a.basis == b.basis
    assert np.array_equal(a.x_hat, b.x_hat)
    assert np.array_equal(a.dual, b.dual)


def test_dual_certificate_matches_basis(ot_lp):
    lp = ot_lp.with_rhs([0.55, 0.45, 0.5])
    res = solve(lp)
    cols = list(res.basis.indices)
    lam = np.linalg.solve(lp.A[:, cols].T, lp.c[cols])
    assert np.allclose(res.dual, lam, atol=1e-12)
    # reduced costs: zero on the basis, nonnegative elsewhere
    slack = lp.c - lp.A.T @ res.dual
    assert np.allclose(slack[cols], 0.0, atol=1e-12)
    assert slack.min() > -1e-9
    assert np.allclose(res.slack, slack, atol=1e-12)


def test_dual_certificate_of_singular_columns_is_a_singular_basis():
    """Columns 0 and 1 are parallel, so LAPACK finds the block exactly
    singular; the typed error is raised and nothing is cached."""
    lp = StandardLp([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]], [1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(lp.A[:, [0, 1]].T, lp.c[[0, 1]])
    for _ in range(2):
        with pytest.raises(SingularBasis, match=r"columns \(0, 1\) are singular"):
            dual_certificate(lp, (0, 1))
    assert len(lp.basis_cache) == 0


def test_infeasible_program():
    lp = StandardLp([[1.0, 1.0]], [-1.0], [0.0, 0.0])
    with pytest.raises(Infeasible):
        solve(lp)


def test_negative_rhs_is_not_infeasible():
    # row signs are corrected internally, so a negative rhs alone is fine
    lp = StandardLp([[-1.0, 0.0], [0.0, 1.0]], [-2.0, 1.0], [1.0, 1.0])
    res = solve(lp)
    assert np.allclose(res.x_hat, [2.0, 1.0])


def test_unbounded_program():
    # x0 = 1 + x1 with reward on x0 grows without bound
    lp = StandardLp([[1.0, -1.0]], [1.0], [-1.0, 0.0])
    with pytest.raises(Unbounded):
        solve(lp)


def test_classic_cycling_instance_terminates():
    """A textbook pivoting trap: every vertex is degenerate at the start."""
    A = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.00, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    lp = StandardLp(A, b, c)
    res = solve(lp)
    assert abs(res.objective - (-0.05)) < 1e-9
    assert verify_kkt(lp, res)


def test_verify_kkt_rejects_corruption(ot_lp):
    lp = ot_lp.with_rhs([0.55, 0.45, 0.5])
    res = solve(lp)
    bad = type(res)(x_hat=res.x_hat, basis=res.basis, objective=res.objective,
                    dual=res.dual + 0.5, slack=res.slack)
    assert not verify_kkt(lp, bad)
    worse = type(res)(x_hat=np.abs(res.x_hat) + 0.1, basis=res.basis,
                      objective=res.objective, dual=res.dual, slack=res.slack)
    assert not verify_kkt(lp, worse)


def _random_bounded_instance(rng):
    while True:
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k + 1, 11))
        A = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(A) < k:
            continue
        b = A @ rng.uniform(0.2, 2.0, size=m)
        y = rng.standard_normal(k)
        s = np.abs(rng.standard_normal(m))
        s[rng.random(m) < 0.3] = 0.0  # zero reduced costs force ties
        return StandardLp(A, b, A.T @ y + s)


def test_oracle_equivalence_sweep():
    """Iterative solve must agree with exhaustive enumeration, basis included."""
    rng = np.random.Generator(np.random.Philox(key=1234, counter=[0, 0, 0, 0]))
    for _ in range(200):
        lp = _random_bounded_instance(rng)
        res = solve(lp)
        _, bases = optimal_vertices(lp)
        values = [float(lp.c @ basic_solution(lp, bb).x) for bb in bases]
        f = min(values)
        assert abs(res.objective - f) <= 2e-8 * (1 + abs(f))
        assert res.basis in bases
        assert verify_kkt(lp, res)


def test_result_is_immutable(ot_lp):
    res = solve(ot_lp)
    with pytest.raises(AttributeError):
        res.objective = 1.0
    with pytest.raises(ValueError):
        res.x_hat[0] = 5.0


def test_scaling_invariance_of_argmin(ot_lp):
    res1 = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    scaled = StandardLp(ot_lp.A, [0.55, 0.45, 0.5], ot_lp.c * 1000.0)
    res2 = solve(scaled)
    assert res1.basis == res2.basis
    assert np.allclose(res1.x_hat, res2.x_hat)
    assert abs(res2.objective - 1000.0 * res1.objective) < 1e-9


def test_pivot_budget_exhaustion_is_no_convergence(monkeypatch, ot_lp):
    from lpdist import simplex
    from lpdist.errors import LpError, NoConvergence

    monkeypatch.setattr(simplex, "_pivot_budget", lambda k, n: 1)
    with pytest.raises(NoConvergence) as info:
        solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    assert isinstance(info.value, LpError)
