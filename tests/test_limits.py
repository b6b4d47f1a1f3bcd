import json

import numpy as np
import pytest
import scipy.optimize

from lpdist import StandardLp, problem, solve
from lpdist.errors import Infeasible, NotUnique, Unbounded
from lpdist.geometry import SphereGrid, argmax_vertex, support_function
from lpdist.limits import (
    LAWS,
    AuxVertexEnumerator,
    EmpiricalLaw,
    GaussianLaw,
    MultinomialLaw,
    NoiseSampler,
    distance_statistic,
    hadamard_quotient_check,
    limit_support_function,
    sample_unique_limit,
    split_free,
)
from lpdist.problem import build_kind, optimal_vertices, support

from conftest import transport_lp

OT_TARGET = np.array([0.5, 0.0, 0.0, 0.5])
MEAN_LIMIT_DISTANCE = 0.5641895835477563  # 1/sqrt(pi), closed form for this law


# ---------------------------------------------------------------- samplers

def test_gaussian_sampler_is_order_independent():
    s = NoiseSampler(GaussianLaw(np.eye(3)), 5)
    fifth = s.draw(5)
    assert np.array_equal(s.draw(5), fifth)
    batch = s.draw_block(0, 6)
    assert np.array_equal(batch[5], fifth)
    other = NoiseSampler(GaussianLaw(np.eye(3)), 6)
    assert not np.array_equal(other.draw(5), fifth)


def test_gaussian_sampler_support_padding():
    s = NoiseSampler(GaussianLaw(np.eye(2), (1, 3), 5), 1)
    g = s.draw(0)
    assert g.shape == (5,)
    assert g[0] == g[2] == g[4] == 0.0
    assert g[1] != 0.0 and g[3] != 0.0
    with pytest.raises(ValueError):
        NoiseSampler(GaussianLaw(np.eye(2), (0,)), 1)
    with pytest.raises(ValueError):
        NoiseSampler(GaussianLaw(np.eye(2), dim=4), 1)


def test_multinomial_clt_moments():
    p = np.array([0.2, 0.3, 0.5])
    s = NoiseSampler(MultinomialLaw(p, pad_to=4), 11)
    draws = s.draw_block(0, 20000)
    assert draws.shape == (20000, 4)
    assert np.allclose(draws[:, 3], 0.0)
    assert np.abs(draws[:, :3].mean(axis=0)).max() < 0.02
    cov = np.cov(draws[:, :3].T)
    assert np.abs(cov - (np.diag(p) - np.outer(p, p))).max() < 0.02
    # each draw sums to zero: frequencies always sum to one
    assert np.abs(draws.sum(axis=1)).max() < 1e-12


def test_multinomial_clt_validation():
    with pytest.raises(ValueError):
        NoiseSampler(MultinomialLaw([0.5, 0.6], pad_to=2), 0)
    with pytest.raises(ValueError):
        NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=1), 0)


def test_empirical_sampler_cycles_rows():
    rows = np.array([[1.0, 0.0], [0.0, 2.0]])
    s = NoiseSampler(EmpiricalLaw(rows), 3)
    seen = {tuple(s.draw(i)) for i in range(40)}
    assert seen == {(1.0, 0.0), (0.0, 2.0)}
    single = NoiseSampler(EmpiricalLaw([[0.0, 0.0]]), 3)
    assert np.array_equal(single.draw(7), [0.0, 0.0])
    with pytest.raises(ValueError):
        NoiseSampler(EmpiricalLaw(np.zeros((0, 2))), 0)
    with pytest.raises(ValueError):
        NoiseSampler("nope", seed=0)


# ------------------------------------------------------- mixed-sign solving

def test_split_free_doubles_free_columns():
    lp = StandardLp([[1.0, 2.0, 3.0]], [1.0], [0.5, -1.0, 0.0])
    split, free_order = split_free(lp, frozenset({1}))
    assert split.m == 4  # one free coordinate split into two signs
    assert free_order == [1]
    assert np.array_equal(split.b, [0.0])
    assert split.A.tobytes() == np.hstack([lp.A, -lp.A[:, [1]]]).tobytes()
    assert split.c.tobytes() == np.concatenate([lp.c, -lp.c[[1]]]).tobytes()
    x = solve(split.with_rhs([1.0])).x_hat
    point = x[:3] - np.array([0.0, x[3], 0.0])
    assert np.allclose(lp.A @ point, [1.0], atol=1e-9)
    unsplit, order = split_free(lp, ())
    assert order == []
    assert unsplit.A.tobytes() == lp.A.tobytes() and unsplit.c.tobytes() == lp.c.tobytes()


def _linprog_mixed(A, g, c, free):
    bounds = [(None, None) if j in free else (0, None) for j in range(A.shape[1])]
    return scipy.optimize.linprog(c, A_eq=A, b_eq=g, bounds=bounds, method="highs")


def test_split_path_against_reference_solver(monkeypatch):
    """Above the cap each draw is a simplex solve of the split program; its
    value is HiGHS's on the response program, whose free coordinates are
    ``supp(x_star)``.  The costs are dual feasible, so ``x_star`` is optimal
    and every response program is bounded; each draw is ``A p0`` for a
    feasible ``p0``, so every one is feasible."""
    monkeypatch.setattr(problem, "ENUM_CAP", 0)
    rng = np.random.Generator(np.random.Philox(key=77, counter=[0, 0, 0, 0]))
    programs = 0
    for _ in range(60):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(k + 1, 8))
        A = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(A) < k:
            continue
        free = frozenset(int(i) for i in rng.choice(m, size=rng.integers(0, m // 2 + 1),
                                                    replace=False))
        p0 = rng.uniform(0.1, 1.0, size=(4, m))
        for j in free:
            p0[:, j] = rng.standard_normal(4)
        # dual-feasible cost => bounded: equality on free coords, slack elsewhere
        y = rng.standard_normal(k)
        s = np.abs(rng.standard_normal(m))
        for j in free:
            s[j] = 0.0
        c = A.T @ y + s
        x_star = np.zeros(m)
        x_star[sorted(free)] = rng.uniform(0.1, 1.0, size=len(free))
        lp = StandardLp(A, A @ x_star, c)
        assert support(x_star) == free
        block = sample_unique_limit(lp, x_star, NoiseSampler(EmpiricalLaw(p0 @ A.T), 5), 6)
        for g, point, value in zip(block.g, block.points, block.values):
            ref = _linprog_mixed(A, g, c, free)
            assert ref.status == 0
            assert abs(value - ref.fun) < 1e-7 * (1 + abs(ref.fun))
            assert np.allclose(A @ point, g, atol=1e-8)
            assert min((point[j] for j in range(m) if j not in free), default=0.0) >= -1e-9
        programs += 1
    assert programs > 40


@pytest.mark.parametrize("cap", [None, 0])
def test_both_paths_detect_unbounded(monkeypatch, cap):
    """``x_star`` is not optimal, so its response program is unbounded: the
    family path finds no dual feasible basis, the split simplex no blocking
    row."""
    if cap is not None:
        monkeypatch.setattr(problem, "ENUM_CAP", cap)
    lp = StandardLp([[1.0, 1.0]], [1.0], [1.0, -2.0])
    with pytest.raises(Unbounded):
        sample_unique_limit(lp, [1.0, 0.0], NoiseSampler(GaussianLaw([[1.0]]), 3), 3)


@pytest.mark.parametrize("cap", [None, 0])
def test_both_paths_agree_at_zero_draws_when_unbounded(monkeypatch, cap):
    """Only a draw can show the response program unbounded: at zero draws
    both paths return an empty block, at three both raise ``Unbounded``."""
    if cap is not None:
        monkeypatch.setattr(problem, "ENUM_CAP", cap)
    lp = StandardLp([[1.0, 1.0]], [1.0], [1.0, -2.0])
    noise = NoiseSampler(GaussianLaw([[1.0]]), 3)
    block = sample_unique_limit(lp, [1.0, 0.0], noise, 0)
    assert len(block) == 0 and block.points.shape == (0, 2)
    with pytest.raises(Unbounded):
        sample_unique_limit(lp, [1.0, 0.0], noise, 3)


@pytest.mark.parametrize("cap", [None, 0])
def test_both_paths_raise_an_infeasible_draw_first(monkeypatch, cap):
    """``e_0`` is not optimal, so the response program is unbounded at the
    feasible draw 0 and infeasible at draw 1, where row 1 asks three
    nonnegative columns to sum to -1: both paths raise ``Infeasible``."""
    if cap is not None:
        monkeypatch.setattr(problem, "ENUM_CAP", cap)
    lp = StandardLp([[1, 0, 1, -1, 1], [0, 1, 1, 1, 0]], [1, 0], [0, 0, 0, 0, -1])
    noise = NoiseSampler(EmpiricalLaw([[0, -1], [0, 1]]), 3)
    assert noise.draw_block(0, 2).tolist() == [[0.0, 1.0], [0.0, -1.0]]
    with pytest.raises(Infeasible):
        sample_unique_limit(lp, [1, 0, 0, 0, 0], noise, 2)


def test_the_enumerator_raises_unbounded_where_no_basis_is_dual_feasible():
    """The response program of that ``x_star`` over the one-column family:
    ``x_0`` is free and column 1 improves without bound, so the enumerator
    raises ``Unbounded`` rather than report the one basic point."""
    enum = AuxVertexEnumerator([[1.0, 1.0]], [1.0, -2.0], {0})
    assert not enum._duals[1].any()
    with pytest.raises(Unbounded):
        enum.optimal_set([1.0])


# -------------------------------------------------- directional response LPs

def test_aux_uniqueness_guard(ot_lp, ones_3x3_lp):
    noise = NoiseSampler(GaussianLaw(np.eye(3)), 0)
    guarded = sample_unique_limit(ot_lp, OT_TARGET, noise, 5, verify_unique=True)
    plain = sample_unique_limit(ot_lp, OT_TARGET, noise, 5)
    assert guarded.points.tobytes() == plain.points.tobytes()
    x_diag = np.zeros(9)
    x_diag[[0, 4, 8]] = 1.0 / 3.0
    with pytest.raises(NotUnique, match="optimal set has 6 vertices"):
        sample_unique_limit(ones_3x3_lp, x_diag, NoiseSampler(GaussianLaw(np.eye(5)), 0), 5,
                            verify_unique=True)
    with pytest.raises(NotUnique, match="not the optimal vertex"):
        # not the optimizer at all
        sample_unique_limit(ot_lp, np.array([0.0, 0.5, 0.5, 0.0]), noise, 5,
                            verify_unique=True)


def test_transport_response_case_analysis(ot_lp):
    """Marginal shifts move mass along one of the two off-support entries."""
    enum = AuxVertexEnumerator(ot_lp.A, ot_lp.c, support(OT_TARGET))
    for gamma, expected in [
        (0.3, np.array([0.0, 0.3, 0.0, -0.3])),
        (-0.2, np.array([-0.2, 0.0, 0.2, 0.0])),
    ]:
        poly, value = enum.optimal_set(np.array([gamma, -gamma, 0.0]))
        assert len(poly) == 1
        assert np.allclose(poly.vertices[0], expected, atol=1e-12)
        assert abs(value - abs(gamma)) < 1e-12
    poly, value = enum.optimal_set(np.zeros(3))
    assert len(poly) == 1
    assert np.allclose(poly.vertices[0], 0.0)
    assert value == 0.0


def test_enumerator_matches_reference_solver(ot_lp):
    rng = np.random.Generator(np.random.Philox(key=55, counter=[0, 0, 0, 0]))
    enum = AuxVertexEnumerator(ot_lp.A, ot_lp.c, support(OT_TARGET))
    for _ in range(40):
        gamma = rng.standard_normal()
        g = np.array([gamma, -gamma, 0.0])
        poly, value = enum.optimal_set(g)
        ref = _linprog_mixed(ot_lp.A, g, ot_lp.c, support(OT_TARGET))
        assert ref.status == 0
        assert abs(value - ref.fun) < 1e-9 * (1 + abs(ref.fun))
        for v in poly.vertices:
            assert np.allclose(ot_lp.A @ v, g, atol=1e-9)
            assert abs(float(ot_lp.c @ v) - value) < 1e-9


def test_enumerator_infeasible_rhs():
    # single row, no free coordinates, negative rhs is unreachable
    enum = AuxVertexEnumerator(np.array([[1.0, 1.0]]), np.zeros(2), frozenset())
    with pytest.raises(Infeasible):
        enum.optimal_set(np.array([-1.0]))


# ------------------------------------------------------------------ noise laws

LAW_SPECS = [
    {"kind": "gaussian", "sigma": [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]],
     "support_indices": None},
    {"kind": "gaussian", "sigma": [[2.0]], "support_indices": [1]},
    {"kind": "multinomial_marginal", "probabilities": [0.25, 0.75], "tail": [0.5]},
    {"kind": "multinomial_clt", "probabilities": [0.25, 0.75], "pad_to": 3},
    {"kind": "empirical", "vectors": [[1.0, 0.0, 0.5], [0.0, 2.0, 0.5]]},
]


def _same_object(a, b):
    assert type(a) is type(b)
    assert vars(a).keys() == vars(b).keys()
    for key, value in vars(a).items():
        assert np.array_equal(value, vars(b)[key]), key


@pytest.mark.parametrize("spec", LAW_SPECS, ids=lambda spec: spec["kind"])
def test_law_to_dict_rebuilds_an_equal_law(spec):
    law = build_kind(LAWS, spec, "sampler")
    assert law.kind == spec["kind"]
    assert law.to_dict() == spec
    again = build_kind(LAWS, json.loads(json.dumps(law.to_dict())), "sampler")
    _same_object(law, again)
    first, second = law.limit_noise(5, 3), again.limit_noise(5, 3)
    assert first.law.kind == second.law.kind and first.seed == 5
    assert first.draw_block(0, 4).tobytes() == second.draw_block(0, 4).tobytes()


def test_laws_reject_bad_parameters():
    with pytest.raises(ValueError):
        MultinomialLaw([0.5, 0.5], tail=[0.5], pad_to=3)  # to_dict could not keep both
    with pytest.raises(ValueError):
        NoiseSampler("gaussian", seed=0)  # a kind is not a law
    with pytest.raises(ValueError, match="unknown sampler kind"):
        build_kind(LAWS, {"kind": ["gaussian"]}, "sampler")


def test_finite_gaussian_rhs_is_the_limit_row_over_the_rate():
    law = GaussianLaw([[4.0, 1.0], [1.0, 2.0]], support_indices=(2, 0))
    truth = np.array([1.0, 2.0, 3.0])
    # draw 0 of the limit law is the first row of the stream at counter [0, 0, 1, 0]
    rng = np.random.Generator(np.random.Philox(key=8, counter=[0, 0, 1, 0]))
    b = law.sample(truth, 100, 10.0, rng)
    row = law.limit_noise(8, 3).draw(0)
    assert b.tobytes() == (truth + row / 10.0).tobytes()
    assert row[1] == 0.0


# ------------------------------------------------------------ sampling paths

def test_sample_unique_limit_draws_are_reproducible(ot_lp):
    noise = NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=3), 42)
    a = sample_unique_limit(ot_lp, OT_TARGET, noise, 10)
    b = sample_unique_limit(ot_lp, OT_TARGET, noise, 10)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.g, sb.g)
        assert np.array_equal(sa.optimal_set.vertices, sb.optimal_set.vertices)
    # distances follow the closed form sqrt(2) * |first noise coordinate|
    for sample in a:
        assert abs(distance_statistic(sample)
                   - np.sqrt(2.0) * abs(sample.g[0])) < 1e-9


def test_vertex_only_path_matches_enumeration(monkeypatch, ot_lp):
    noise = NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=3), 9)
    full = sample_unique_limit(ot_lp, OT_TARGET, noise, 25)
    with monkeypatch.context() as patch:  # above the cap: one simplex vertex per draw
        patch.setattr(problem, "ENUM_CAP", 0)
        fast = sample_unique_limit(ot_lp, OT_TARGET, noise, 25)
    for sf, sv in zip(full, fast):
        assert abs(sf.objective - sv.objective) < 1e-9
        assert abs(distance_statistic(sf) - distance_statistic(sv)) < 1e-9


def test_limit_distance_mean_close_to_closed_form(ot_lp):
    noise = NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=3), 4)
    samples = sample_unique_limit(ot_lp, OT_TARGET, noise, 2000)
    mean = float(np.mean([distance_statistic(s) for s in samples]))
    assert abs(mean - MEAN_LIMIT_DISTANCE) < 0.03


# ------------------------------------------------- support-function reduction

def test_limit_support_function_no_ties(ot_lp):
    grid = SphereGrid(4, 32)
    pairs, excluded = limit_support_function(ot_lp, np.array([0.25, -0.25, 0.0]), grid)
    assert not excluded
    assert len(pairs) == 32
    enum = AuxVertexEnumerator(ot_lp.A, ot_lp.c, support(OT_TARGET))
    response, _ = enum.optimal_set(np.array([0.25, -0.25, 0.0]))
    for direction, value in pairs:
        assert abs(value - support_function(response, direction)) < 1e-12


def test_limit_support_function_excludes_ties():
    # two optimal vertices: directions equidistant from both are set aside
    lp = StandardLp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    grid = SphereGrid(2, 64)
    pairs, excluded = limit_support_function(lp, np.array([0.1]), grid)
    assert len(excluded) == 2  # the diagonal directions +-(1,1)/sqrt(2)
    assert len(pairs) == 62


@pytest.mark.parametrize("lp, g", [
    (transport_lp([0.5, 0.5], [0.5, 0.5], [0.0, 1.0, 1.0, 0.0]), np.array([0.25, -0.25, 0.0])),
    (StandardLp([[1.0, 1.0]], [1.0], [0.0, 0.0]), np.array([0.1])),  # two optimal vertices
])
def test_limit_support_function_solves_once_per_support_key(monkeypatch, lp, g):
    grid = SphereGrid(lp.m, 64)
    polytope, _ = optimal_vertices(lp)
    keys = set()
    for direction in grid.directions:
        vertex, unique = argmax_vertex(polytope, direction)
        if unique:
            keys.add(support(vertex))
    calls = []
    solve_one = AuxVertexEnumerator.optimal_set

    def counting(self, rhs):
        calls.append(self.family.fixed)
        return solve_one(self, rhs)

    monkeypatch.setattr(AuxVertexEnumerator, "optimal_set", counting)
    pairs, _ = limit_support_function(lp, g, grid)
    assert len(calls) == len(keys) == len({tuple(free) for free in calls})
    assert len(pairs) > len(keys)


def test_hadamard_quotient_is_exact_inside_radius(ot_lp):
    xi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    err = hadamard_quotient_check(ot_lp, xi, 0.01, SphereGrid(4, 64))
    assert err < 1e-9
    for t in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ValueError):
            hadamard_quotient_check(ot_lp, xi, t, SphereGrid(4, 8))
