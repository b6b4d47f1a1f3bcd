"""Oracle test: the coverage candidates are the whole optimal set.

``optimal_face_vertices`` solves the family of the columns that tie under
the solved basis's duals; ``optimal_vertices`` enumerates every basis of
the program.  At any rhs their vertex sets must agree within ``DEDUP_TOL``,
with the solved vertex first and no vertex twice.
"""
import numpy as np
import pytest

from lpdist import StandardLp, solve
from lpdist.experiments import build_min_cost_flow, build_ot_2x2, optimal_face_vertices
from lpdist.problem import DEDUP_TOL, optimal_vertices

from conftest import transport_lp
from test_iter_bases import PROGRAMS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def assert_candidates_are_the_optimal_set(lp):
    result = solve(lp)
    candidates = optimal_face_vertices(lp, result)
    assert candidates[0][0] == result.basis.indices
    assert candidates[0][1] is result.x_hat
    points = np.array([x for _, x in candidates])
    want = optimal_vertices(lp)[0].vertices
    gaps = np.abs(points[:, None, :] - want[None, :, :]).max(axis=2)
    assert len(points) == len(want)
    assert (gaps.min(axis=1) <= DEDUP_TOL).all() and (gaps.min(axis=0) <= DEDUP_TOL).all()
    for basis, x in candidates:
        assert np.abs(lp.A[:, list(basis)] @ x[list(basis)] - lp.b).max() <= 1e-9
    return len(points)


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_builtins_at_the_truth_and_at_sampled_replicates(build):
    config = build()
    assert assert_candidates_are_the_optimal_set(config.lp) == len(config.targets)
    rng = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, 0]))
    for n in config.n_values:
        rate = float(n) ** config.rate_exponent
        for _ in range(20):
            b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
            assert_candidates_are_the_optimal_set(config.lp.with_rhs(b_n))


def test_transport_with_zero_cost_has_every_vertex_as_a_candidate(ones_3x3_lp):
    # a 2x3 plan with zero cost: every vertex is optimal, two of them two
    # pivots away from the solved one, which a one-pivot walk misses
    lp = transport_lp([0.6, 0.4], [0.3, 0.45, 0.25], np.zeros(6))
    assert assert_candidates_are_the_optimal_set(lp) == 5
    assert assert_candidates_are_the_optimal_set(ones_3x3_lp) == len(
        optimal_vertices(ones_3x3_lp)[0])


@st.composite
def degenerate_programs(draw):
    """A program of ``PROGRAMS`` at a feasible rhs ``A x`` whose ``x`` has
    zeros, under a cost ``A^T y + s`` whose reduced costs ``s >= 0`` have
    zeros: both primal and dual degenerate, and bounded."""
    A = PROGRAMS[draw(st.integers(0, len(PROGRAMS) - 1))][0].A
    k, m = A.shape
    weights = st.one_of(st.just(0.0), st.floats(0.5, 2.0))
    x = np.array(draw(st.lists(weights, min_size=m, max_size=m)))
    s = np.array(draw(st.lists(weights, min_size=m, max_size=m)))
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)))
    return StandardLp(A, A @ x, A.T @ y + s)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(degenerate_programs())
def test_degenerate_programs_at_random_feasible_rhs(lp):
    assert_candidates_are_the_optimal_set(lp)
