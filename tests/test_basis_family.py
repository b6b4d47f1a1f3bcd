"""The one basis family against the per-basis, per-row paths it replaced.

``BasisFamily.solve`` solves every basis of a family for a block of
right-hand sides through its stack of inverses.  Each row of the result must
carry the bits of that row solved alone, so neither the block nor the caller
moves a bit, and must agree with ``getrs`` on the basis's LU factors within
``ORACLE_BOUND``.  On that rests the rest: ``optimal_vertices`` is the family's optimal set
with no sign-free columns, and the Hausdorff limit comparison solves all of
its draws in one ``optimal_rows`` call.
"""
import math
import mmap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lpdist import (
    AuxVertexEnumerator,
    ExperimentConfig,
    GaussianLaw,
    Polytope,
    StandardLp,
    build_min_cost_flow,
    build_ot_2x2,
    hausdorff,
    kolmogorov_smirnov,
    min_norm_point,
    optimal_vertices,
    run_limit_comparison,
    sample_unique_limit,
)
from lpdist import problem
from lpdist.errors import Infeasible, NonFiniteData, Unbounded
from lpdist.problem import (
    Basis,
    BasisFamily,
    basic_solution,
    iter_bases,
    program_duals,
    program_family,
    quiet_lu,
    solve_lu,
)

from conftest import optimal_sets
from test_iter_bases import PROGRAMS, dual_infeasible, near
from test_optimal_set_properties import in_block


def _rows(lp, count, seed):
    """``count`` right-hand sides near ``lp.b``."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
    return lp.b + 0.1 * rng.standard_normal((count, lp.k))


def assert_rows_match_lone_solves(family, rows):
    """Each row of a block solve carries the bits of its lone-row solve, in
    any row order, and agrees with ``getrs`` on each basis's LU factors."""
    x = family.solve(rows)
    assert x.shape == (len(family), len(rows), rows.shape[1])
    assert family.solve(rows[::-1])[:, ::-1].tobytes() == x.tobytes()
    for r, row in enumerate(rows):
        assert family.solve(row[None, :])[:, 0].tobytes() == x[:, r].tobytes()
    for (_, lu_piv), block in zip(iter_bases(family.A, fixed=family.fixed), x):
        for row, got in zip(rows, block):
            assert near(got, solve_lu(lu_piv, row))


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_family_rows_equal_single_basis_solves(lp, count):
    family = BasisFamily(lp.A)
    assert [tuple(cols) for cols in family.cols.tolist()] == [cols for cols, _ in
                                                              iter_bases(lp.A)]
    assert_rows_match_lone_solves(family, _rows(lp, count, count))


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS[:3]])  # ot2x2, mcf, random
def test_inverses_are_identity_solves_in_a_read_only_stack_of_contiguous_columns(lp):
    family = BasisFamily(lp.A)
    inverses = family.inverses
    assert inverses.shape == (len(family), lp.k, lp.k) and not inverses.flags.writeable
    assert all(inverses[:, :, j].flags.c_contiguous for j in range(lp.k))
    for (_, lu_piv), inverse in zip(iter_bases(lp.A), inverses):
        assert inverse.tobytes() == solve_lu(lu_piv, np.eye(lp.k)).tobytes()


def _root(array):
    """The buffer under ``array`` and its chain of views."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.base.obj if isinstance(array.base, memoryview) else array.base


def test_a_large_stack_is_mapped_and_built_without_a_second_copy():
    """The min-cost flow's stack reserves room for all 8568 candidate bases
    (11.6 MB) and fills 1888 of them (2.55 MB).  The room is a memory map,
    whose untouched pages take no memory, and the build allocates no more
    than a few blocks' worth beside it (numpy reports its arrays to
    ``tracemalloc``; the map is not one of them)."""
    lp = PROGRAMS[1][0]
    tracemalloc.start()
    try:
        family = BasisFamily(lp.A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(family), family.inverses.nbytes) == (1888, 1888 * 13 * 13 * 8)
    assert isinstance(_root(family.inverses), mmap.mmap)
    assert peak < family.inverses.nbytes / 4
    assert _root(BasisFamily(PROGRAMS[0][0].A).inverses) is None  # a small one is an array


def test_an_ill_conditioned_block_is_solved_by_getrs():
    """The product with the inverse of ``[[1, 1], [1, 1 + 1e-6]]`` misses
    ``getrs``'s exact ``x_0 = 0.3`` by about ``1e-11``, more than
    ``ORACLE_BOUND``, and the error bound says so; those entries are the
    lone-row ``getrs`` solves."""
    A, row = np.array([[1.0, 1.0], [1.0, 1.000001]]), np.array([0.3, 0.3])
    family = BasisFamily(A)
    (_, lu_piv), = iter_bases(A)
    want = solve_lu(lu_piv, row)
    assert not near(family.inverses[0] @ row, want)
    assert family.solve(row[None, :])[0, 0].tobytes() == want.tobytes()
    assert_rows_match_lone_solves(family, np.array([row, [0.1, 0.2], row]))


def test_rows_above_the_room_factor_each_basis_once(monkeypatch):
    """Rows of the min-cost flow above its family's room (about 26.6) are
    solved by ``getrs`` at nearly every basis.  A block of them factors each
    such basis once and solves its rows in one call, and each row keeps the
    bits it gets alone, in the solve and in ``optimal_rows``."""
    lp, slater = PROGRAMS[1]
    family = program_family(lp)
    rng = np.random.Generator(np.random.Philox(key=5, counter=[0, 0, 0, 0]))
    rows = np.array([lp.A @ (slater * rng.uniform(0.5, 1.5, lp.m)) for _ in range(6)])
    rows *= np.array([1.5, 2.0, 3.0, 5.0, 10.0, 40.0])[:, None] * family._room \
        / np.abs(rows).max(axis=1, keepdims=True)
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(problem, "quiet_lu", lambda block: calls.append(block) or quiet_lu(block))
        family.solve(rows)
    assert len(family) / 2 < len(calls) <= len(family)
    assert_rows_match_lone_solves(family, rows)
    assert in_block(lp, rows) == [in_block(lp, row[None, :])[0] for row in rows]


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS])
def test_optimal_vertices_is_the_family_optimal_set_without_free_columns(lp):
    if dual_infeasible(lp):
        with pytest.raises(Unbounded):
            optimal_vertices(lp)
        return
    polytope, optimal = optimal_vertices(lp)
    aux, value = AuxVertexEnumerator(lp.A, lp.c, ()).optimal_set(lp.b)
    assert polytope.vertices.tobytes() == aux.vertices.tobytes()
    assert min(float(lp.c @ v) for v in polytope.vertices) == pytest.approx(value, abs=1e-12)
    assert optimal and all(
        any(near(v[list(basis.indices)], solve_lu(problem.factor_columns(lp, basis.indices),
                                                  lp.b)) for v in polytope.vertices)
        for basis in optimal)


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS])
def test_block_optimal_sets_equal_lone_row_sets(monkeypatch, lp):
    rows = _rows(lp, 9, 4)
    family = program_family(lp)
    lone = [optimal_sets(family, lp.c, row[None, :]) for row in rows]
    monkeypatch.setattr(problem, "SOLVE_CELLS", 2 * len(family))  # two rows per block
    block = optimal_sets(family, lp.c, rows)
    assert len(block) == len(rows)
    for (got, got_value), ((want, want_value),) in zip(block, lone):
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert repr(got_value) == repr(want_value)


def test_family_rejects_bad_rows_and_empty_blocks_give_no_sets(ot_lp):
    family = program_family(ot_lp)
    with pytest.raises(NonFiniteData):
        optimal_sets(family, ot_lp.c, np.array([[np.nan, 0.5, 0.5]]))
    with pytest.raises(ValueError):
        optimal_sets(family, ot_lp.c, np.zeros((2, 4)))
    assert optimal_sets(family, ot_lp.c, np.zeros((0, 3))) == []
    with pytest.raises(Infeasible):
        optimal_sets(family, ot_lp.c, np.array([[-1.0, 0.5, 0.5]]))


def test_block_sets_give_each_row_its_own_error():
    """On a family with a fixed column, a NaN row and an infeasible row
    (``r_1 < 0``) each get their own error, the block raises the
    ``Infeasible``, and the good row's set is its set alone."""
    family = BasisFamily(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), fixed=[0])
    c = np.array([0.0, 1.0, 2.0])
    rows = np.array([[np.nan, 1.0], [1.0, -1.0], [1.0, 2.0]])
    sets = problem.block_sets(family, c, rows)
    points, values, _, groups, errors = sets
    assert sorted(errors) == [0, 1]
    assert isinstance(errors[0], NonFiniteData) and isinstance(errors[1], Infeasible)
    with pytest.raises(Infeasible) as raised:
        sets.check()
    assert raised.value is errors[1]
    [(want, want_value)] = optimal_sets(family, c, rows[2:])
    assert groups == [] and points[2:].tobytes() == want.vertices.tobytes()
    assert repr(values[2]) == repr(want_value)


def test_a_windowed_tie_names_its_bases_by_their_columns():
    """On the min-cost flow at its own ``b`` the dual window is taken and
    the set ties, so the kernel solves a part of the family: ``tied`` names
    the bases ``optimal_vertices`` returns, and each ``first`` is a basis of
    the whole family whose basic solution is its kept vertex."""
    lp = build_min_cost_flow().lp
    assert program_duals(lp)[2] is not None
    _, _, _, [(rows, [kept], first, tied)], errors = problem.optimal_rows(lp, lp.b[None, :])
    assert not errors and rows.tolist() == [0] and len(kept) == len(first) > 1
    _, bases = optimal_vertices(lp)
    assert [tuple(cols) for cols in tied.tolist()] == [basis.indices for basis in bases]
    family = [tuple(cols) for cols in program_family(lp).cols.tolist()]
    bound = 1e-12 * (1.0 + np.abs(lp.b).max())
    for cols, vertex in zip(first.tolist(), kept):
        assert tuple(cols) in family
        assert np.abs(basic_solution(lp, Basis(cols)).x - vertex).max() <= bound


def test_a_subnormal_pivot_is_not_invertible():
    """The reciprocal of a subnormal pivot overflows, so the invertibility
    floor rejects the block: in the rank check and in the enumeration."""
    with pytest.raises(ValueError, match="full row rank"):
        StandardLp([[1e-310]], [0.0], [0.0])
    with pytest.raises(Infeasible):
        BasisFamily(np.array([[1e-310]]))


def reference_comparison(config, n, draws, statistic):
    """``run_limit_comparison`` as it was written before the family:
    ``optimal_vertices`` on a ``with_rhs`` program per draw, then, per draw
    on both sides, ``min_norm_point`` from the centre (``x*``, or the
    origin) to the optimal set for "distance", or ``hausdorff`` for
    "hausdorff"."""
    rate = float(n) ** config.rate_exponent
    origin = Polytope([np.zeros(config.lp.m)])

    def of(polytope, centre):
        if statistic == "distance":
            return min_norm_point(polytope, centre.vertices[0])[1]
        return hausdorff(polytope, centre)

    finite = []
    for i in range(draws):
        rng = np.random.Generator(np.random.Philox(key=config.seed, counter=[1, 0, 0, i]))
        b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
        shifted, _ = optimal_vertices(config.lp.with_rhs(b_n))
        finite.append(rate * of(shifted, config.targets))
    noise = config.b_sampler.limit_noise(config.seed, config.lp.k)
    samples = sample_unique_limit(config.lp, config.targets.vertices[0], noise, draws)
    limit = np.array([of(s.optimal_set, origin) for s in samples])
    finite = np.array(finite)
    return {"n": n, "draws": draws, "statistic": statistic,
            "ks_distance": kolmogorov_smirnov(finite, limit),
            "finite_mean": float(finite.mean()), "limit_mean": float(limit.mean())}


def _gaussian_config(lp, seed):
    return ExperimentConfig(lp=lp, b_sampler=GaussianLaw(np.eye(lp.k)), region=None, seed=seed)


@pytest.mark.parametrize("cells", [problem.SOLVE_CELLS, 40, 7])
@pytest.mark.parametrize("make", [
    lambda: build_ot_2x2(),
    *[lambda lp=lp: _gaussian_config(lp, 5) for lp, _ in PROGRAMS[2:8]],
])
def test_hausdorff_comparison_equals_per_draw_reference(monkeypatch, make, cells):
    """Both statistics of the comparison equal the per-draw reference, however
    the finite draws' solves are sliced."""
    try:
        config = make()
    except Unbounded:
        # a program with no dual feasible basis has no optimal set to study
        assert dual_infeasible(make.__defaults__[0])
        return
    monkeypatch.setattr(problem, "SOLVE_CELLS", cells)
    for statistic in ("distance", "hausdorff"):
        want = reference_comparison(config, 400, 30, statistic)
        assert repr(run_limit_comparison(config, 400, 30, statistic=statistic)) == repr(want)


def test_windowed_hausdorff_comparison_equals_the_whole_family(monkeypatch):
    """Arc (3, 5) made dearer leaves the min-cost flow one optimal vertex,
    so the comparison runs; its family is above ``WINDOW_CELLS``, so the
    finite draws take the dual window, and they give the dict that solving
    the whole family gives."""
    base = build_min_cost_flow()
    c = base.lp.c.copy()
    c[6] += 0.5
    windowed = replace(base, lp=StandardLp(base.lp.A, base.lp.b, c))
    assert len(windowed.targets) == 1
    assert problem.program_duals(windowed.lp)[2] is not None
    got = run_limit_comparison(windowed, 50, 300, statistic="hausdorff")
    monkeypatch.setattr(problem, "WINDOW_CELLS", math.inf)
    whole = replace(base, lp=StandardLp(base.lp.A, base.lp.b, c))
    assert problem.program_duals(whole.lp)[2] is None
    assert repr(run_limit_comparison(whole, 50, 300, statistic="hausdorff")) == repr(got)
