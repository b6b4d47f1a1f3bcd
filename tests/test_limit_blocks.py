"""Block sampling of the limit law against per-draw references.

The references below are independent computations of what the block paths
make: for the noise, the whole Philox block behind a draw index, built
afresh and transformed by explicit ordered sums; for the optimal sets, one
scalar ``lu_solve`` per candidate basis with the same feasibility test,
objective and tie cutoff.
"""
import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_solve

from lpdist import StandardLp, kolmogorov_smirnov, optimal_vertices, solve
from lpdist import problem
from lpdist.errors import Infeasible, LpError, NonFiniteData, Unbounded
from lpdist.experiments import build_min_cost_flow, build_ot_2x2, run_limit_comparison
from lpdist.geometry import hausdorff, min_norm_point
from lpdist.limits import (
    AuxVertexEnumerator,
    LimitBlock,
    LimitSample,
    EmpiricalLaw,
    GaussianLaw,
    MultinomialLaw,
    NoiseSampler,
    distance_statistic,
    sample_unique_limit,
    set_statistic,
    split_free,
)
from lpdist.problem import FEAS_TOL, Polytope, quiet_lu, read_only, support

from conftest import optimal_sets
from test_geometry import wolfe_hausdorff
from test_iter_bases import near, same_vertex_set

OT_TARGET = np.array([0.5, 0.0, 0.0, 0.5])
INDICES = (0, 1, 2, 1023, 1024, 1025, 2047, 5000, 2**40)
SIGMA = [[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 0.7]]


def _ordered_sum(terms):
    """``terms[0] + terms[1] + ...``, added left to right."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_draw(sampler: NoiseSampler, index: int) -> np.ndarray:
    """Draw ``index``: row ``index % 1024`` of the full block of the
    generator built afresh at Philox counter ``[0, 0, 1, index // 1024]``."""
    rng = np.random.Generator(np.random.Philox(key=sampler.seed,
                                               counter=[0, 0, 1, index // 1024]))
    row = index % 1024
    if sampler.law.kind == "gaussian":
        chol = np.linalg.cholesky(sampler.law.sigma)
        z = rng.standard_normal((1024, chol.shape[0]))[row]
        core = _ordered_sum([chol[:, j] * z[j] for j in range(len(z))])
        if sampler.law.support_indices is None:
            return core
        out = np.zeros(sampler.law.dim)
        out[list(sampler.law.support_indices)] = core
        return out
    if sampler.law.kind == "multinomial_clt":
        p = sampler.law.probabilities
        z = rng.standard_normal((1024, len(p)))[row]
        root = np.sqrt(p)
        out = np.zeros(sampler.law.pad_to)
        out[: len(p)] = root * z - p * _ordered_sum([root[j] * z[j] for j in range(len(p))])
        return out
    return sampler.law.vectors[rng.integers(len(sampler.law.vectors), size=1024)[row]].copy()


SAMPLERS = {
    "gaussian": lambda: NoiseSampler(GaussianLaw(SIGMA), 3),
    "gaussian_support": lambda: NoiseSampler(GaussianLaw(SIGMA, (0, 2, 5), dim=6), 4),
    "multinomial_clt": lambda: NoiseSampler(MultinomialLaw([0.1, 0.2, 0.3, 0.4], pad_to=6), 5),
    "empirical": lambda: NoiseSampler(EmpiricalLaw(np.arange(12.0).reshape(4, 3) * 0.37), 6),
    # a seed past 2**64 fills both words of the Philox key
    "large_seed": lambda: NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=2), 2**100 + 2**64 + 7),
}


def test_seed_must_fit_the_philox_key():
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=2), seed)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_block_rows_equal_per_index_draws(name):
    sampler = SAMPLERS[name]()
    block = sampler.draw_block(1020, 10)
    listed = sampler.draw_block(0, 5001)
    for row, index in enumerate(range(1020, 1030)):
        assert block[row].tobytes() == reference_draw(sampler, index).tobytes()
        assert listed[index].tobytes() == block[row].tobytes()
    for index in INDICES:
        want = reference_draw(sampler, index).tobytes()
        assert sampler.draw(index).tobytes() == want
        assert sampler.draw_block(index, 1)[0].tobytes() == want
        if index < len(listed):
            assert listed[index].tobytes() == want
    assert sampler.draw_block(5, 0).shape == (0, sampler.law.dim)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_a_block_may_start_and_end_anywhere(name):
    sampler = SAMPLERS[name]()
    listed = sampler.draw_block(0, 2100)
    for start, count in ((0, 2100), (1, 1023), (1023, 2), (700, 1400), (2047, 53)):
        assert sampler.draw_block(start, count).tobytes() == listed[start:start + count].tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_a_negative_start_or_count_is_named(name):
    sampler = SAMPLERS[name]()
    for call, argument in ((lambda: sampler.draw(-1), "start"),
                           (lambda: sampler.draw_block(-1025, 2), "start"),
                           (lambda: sampler.draw_block(0, -1), "count")):
        with pytest.raises(ValueError, match=f"^{argument} must be nonnegative"):
            call()


def test_a_wide_gaussian_block_takes_memory_of_its_own_size():
    """A block of 1024 draws of a 100-dimensional Gaussian law sums each row's
    product over the columns in place: its peak is a few blocks, not an array
    of shape (1024, 100, 100), which would take 82 MB (numpy reports its
    arrays to ``tracemalloc``)."""
    sampler = NoiseSampler(GaussianLaw(np.eye(100) + 0.5), 8)
    tracemalloc.start()
    try:
        block = sampler.draw_block(0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block.nbytes
    for index in (0, 1, 1023):
        assert block[index].tobytes() == reference_draw(sampler, index).tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_draws_do_not_depend_on_the_block_size(name):
    sampler = SAMPLERS[name]()
    default = sampler.draw_block(0, 40)
    sevens = np.concatenate([sampler.draw_block(start, 7) for start in range(0, 40, 7)])
    assert sevens[:40].tobytes() == default.tobytes()


def test_threads_may_share_a_sampler():
    sampler = SAMPLERS["gaussian_support"]()
    expected = sampler.draw_block(0, 300).tobytes()
    results = {}

    def work(tag):
        results[tag] = [sampler.draw_block(0, 300).tobytes() for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    assert all(run == expected for runs in results.values() for run in runs)


def _same_samples(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.g.tobytes() == sb.g.tobytes()
        assert sa.optimal_set.vertices.shape == sb.optimal_set.vertices.shape
        assert sa.optimal_set.vertices.tobytes() == sb.optimal_set.vertices.tobytes()
        assert np.float64(sa.objective).tobytes() == np.float64(sb.objective).tobytes()


def test_limit_samples_are_prefix_stable():
    config = build_ot_2x2()
    noise = config.b_sampler.limit_noise(11, config.lp.k)
    x_star = config.targets.vertices[0]
    longest = sample_unique_limit(config.lp, x_star, noise, 1025)
    for n in (1, 1023, 1024):
        _same_samples(sample_unique_limit(config.lp, x_star, noise, n), longest[:n])


def test_limit_samples_do_not_depend_on_the_block_size(monkeypatch):
    """With ``SOLVE_CELLS`` patched, the kernel solves the draws 7 at a time."""
    config = build_ot_2x2()
    noise = config.b_sampler.limit_noise(12, config.lp.k)
    x_star = config.targets.vertices[0]
    default = sample_unique_limit(config.lp, x_star, noise, 50)
    family = AuxVertexEnumerator(config.lp.A, config.lp.c, support(x_star)).family
    monkeypatch.setattr(problem, "SOLVE_CELLS", 7 * len(family))
    _same_samples(sample_unique_limit(config.lp, x_star, noise, 50), default)


def test_limit_sampling_holds_one_solve_at_a_time():
    """At ``x_star = 0`` every one of the 190 bases of a 3x12 program is a
    candidate, so a draw's solved coordinates (190 * 3 floats) outweigh its
    result (12 + 3 floats and two list entries) many times.  The kernel
    assembles each solve of ``SOLVE_CELLS`` entries before it makes the
    next, so the peak grows with the result alone: holding every solve
    would take 4.6 kB a draw, 14 MB more at 4000 draws than at 1000
    (numpy reports its arrays to ``tracemalloc``)."""
    rng = np.random.default_rng(3)
    a = np.hstack([np.eye(3), -np.eye(3), rng.uniform(-1.0, 1.0, (3, 6))])
    lp = StandardLp(a, np.zeros(3), rng.uniform(1.0, 2.0, 12))
    noise = NoiseSampler(GaussianLaw(np.eye(3)), 4)
    assert len(AuxVertexEnumerator(lp.A, lp.c, []).family) == 190
    sample_unique_limit(lp, np.zeros(12), noise, 10)
    peaks = []
    for n in (1000, 4000):
        tracemalloc.start()
        try:
            sample_unique_limit(lp, np.zeros(12), noise, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_draw = 8 * 4 * (lp.m + lp.k)
    assert peaks[1] - peaks[0] < 3000 * per_draw
    assert peaks[1] < 8 * 4 * problem.SOLVE_CELLS * lp.k + 4000 * per_draw


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_single_rhs_matches_its_row_of_a_block(build):
    config = build()
    enum = AuxVertexEnumerator(config.lp.A, config.lp.c, support(config.targets.vertices[0]))
    rows = config.b_sampler.limit_noise(13, config.lp.k).draw_block(0, 300)
    for row, (polytope, value) in zip(rows, optimal_sets(enum.family, enum.c, rows)):
        single, single_value = enum.optimal_set(row)
        assert single.vertices.tobytes() == polytope.vertices.tobytes()
        assert single_value == value


# ------------------------------------------------- kernel against reference

def reference_optimal_set(a, c, free, rhs, feas_tol=FEAS_TOL):
    """The per-candidate scalar enumeration: one ``lu_solve`` per basis."""
    k, m = a.shape
    free = sorted(free)
    others = [j for j in range(m) if j not in free]
    rank_tol = 1e-10 * max(np.abs(a).max(initial=0.0), 1e-30)
    best = math.inf
    hits = []
    for extra in itertools.combinations(others, k - len(free)):
        cols = sorted(free + list(extra))
        lu_piv = quiet_lu(a[:, cols])
        if np.abs(np.diagonal(lu_piv[0])).min() <= rank_tol:
            continue
        x_cols = lu_solve(lu_piv, rhs, check_finite=False)
        checked = x_cols[[j not in free for j in cols]]
        if checked.size and checked.min() < -feas_tol:
            continue
        value = float(c[cols] @ x_cols)
        hits.append((value, cols, x_cols))
        best = min(best, value)
    if not hits:
        raise Infeasible("no feasible candidate")
    points = []
    for value, cols, x_cols in hits:
        if value - best <= 1e-8 * (1.0 + abs(best)):
            point = np.zeros(m)
            point[cols] = x_cols
            points.append(point)
    return Polytope(points), best


def _assert_close_sets(got, want):
    """The family's optimal set against the per-basis ``getrs`` reference:
    the same vertices as a set (``Polytope`` sorts raw floats, so vertices
    a rounding apart can swap places) and the same value, to the oracle
    bound."""
    (poly, value), (ref_poly, ref_value) = got, want
    assert same_vertex_set(poly.vertices, ref_poly.vertices)
    assert near(value, ref_value)


def _check_against_reference(a, c, free, rhs_rows):
    """The kernel's sets, without a dual mask, against the reference at each
    row; the enumerator's too, unless no basis is dual feasible: then the
    response program is unbounded at each feasible row, and it raises."""
    enum = AuxVertexEnumerator(a, c, free)
    expected = []
    for rhs in rhs_rows:
        try:
            expected.append(reference_optimal_set(a, c, free, rhs))
        except Infeasible:
            expected.append(None)
            with pytest.raises(Infeasible):
                enum.optimal_set(rhs)
        else:
            if not enum._duals[1].any():
                with pytest.raises(Unbounded):
                    enum.optimal_set(rhs)
                continue
            _assert_close_sets(enum.optimal_set(rhs), expected[-1])
    feasible = [rhs for rhs, want in zip(rhs_rows, expected) if want is not None]
    if feasible:
        for got, want in zip(optimal_sets(enum.family, enum.c, np.array(feasible)),
                             [want for want in expected if want is not None]):
            _assert_close_sets(got, want)
    if len(feasible) < len(rhs_rows):
        with pytest.raises(Infeasible):
            optimal_sets(enum.family, enum.c, np.array(rhs_rows))
    return expected


def test_kernel_matches_reference_on_random_mixed_sign_programs():
    rng = np.random.Generator(np.random.Philox(key=91, counter=[0, 0, 0, 0]))
    checked = infeasible = 0
    while checked < 80:
        k = int(rng.integers(1, 5))
        m = int(rng.integers(k + 1, 8))
        a = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(a) < k:
            continue
        free = sorted(int(j) for j in rng.choice(m, size=int(rng.integers(0, k + 1)),
                                                  replace=False))
        if np.linalg.matrix_rank(a[:, free]) < len(free):
            continue
        c = rng.standard_normal(m)
        if rng.random() < 0.3:
            c[rng.integers(m)] = 0.0
        rows = rng.standard_normal((int(rng.integers(1, 12)), k))
        try:
            AuxVertexEnumerator(a, c, free)
        except Infeasible:
            continue  # no invertible column set holds the free indices
        expected = _check_against_reference(a, c, free, rows)
        checked += 1
        infeasible += sum(want is None for want in expected)
    assert infeasible > 0


def test_kernel_matches_reference_when_every_vertex_ties(ones_3x3_lp):
    x_diag = np.zeros(9)
    x_diag[[0, 4, 8]] = 1.0 / 3.0
    rng = np.random.Generator(np.random.Philox(key=92, counter=[0, 0, 0, 0]))
    rows = rng.standard_normal((20, ones_3x3_lp.k))
    expected = _check_against_reference(ones_3x3_lp.A, ones_3x3_lp.c, sorted(support(x_diag)),
                                        rows)
    assert all(want is not None for want in expected)
    assert max(len(want[0]) for want in expected) > 1


def test_kernel_matches_reference_on_a_zero_cost_program():
    a = np.array([[1.0, 1.0]])
    rows = np.array([[0.7], [0.0], [-1e-10], [-1.0], [2.5]])
    expected = _check_against_reference(a, np.zeros(2), [], rows)
    assert [None if want is None else len(want[0]) for want in expected] == [2, 1, 1, None, 2]


@pytest.mark.parametrize("base, gap, tied", [(0.0, 5e-9, True), (0.0, 5e-8, False),
                                             (1000.0, 5e-6, True), (1000.0, 5e-5, False)])
def test_tie_cutoff_is_1e_8_relative_to_the_best_value(base, gap, tied):
    # the two columns reach rhs 1 alone, at objectives ``base`` and ``base + gap``
    a = np.array([[1.0, 1.0]])
    expected = _check_against_reference(a, np.array([base, base + gap]), [], np.array([[1.0]]))
    assert len(expected[0][0]) == (2 if tied else 1)


def test_kernel_rejects_non_finite_rows(ot_lp):
    enum = AuxVertexEnumerator(ot_lp.A, ot_lp.c, support(OT_TARGET))
    for bad in ([np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0]):
        with pytest.raises(NonFiniteData):
            enum.optimal_set(np.array(bad))
        with pytest.raises(NonFiniteData):
            optimal_sets(enum.family, enum.c, np.array([[0.1, -0.1, 0.0], bad]))
    with pytest.raises(ValueError):
        optimal_sets(enum.family, enum.c, np.zeros((2, 4)))


def test_kernel_rejects_an_overflowing_objective():
    enum = AuxVertexEnumerator(np.array([[1.0, 1.0]]), np.array([4.0, 4.0]), [])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteData):
        enum.optimal_set(np.array([1e308]))


# ------------------------------------------------------------ vertex only

def split_solve(lp, free, g) -> tuple:
    """One optimal point of the response program at ``g`` and its value: a
    simplex solve of ``split_free``'s program at ``g``, un-split here."""
    split, free_order = split_free(lp, free)
    x = solve(split.with_rhs(g)).x_hat
    point = x[:lp.m].copy()
    point[free_order] -= x[lp.m:]
    return point, float(lp.c @ point)


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_vertex_only_equals_per_draw_mixed_solves(monkeypatch, build):
    config = build()
    noise = config.b_sampler.limit_noise(21, config.lp.k)
    x_star = config.targets.vertices[0]
    free = support(x_star)
    with monkeypatch.context() as patch:  # above the cap: one simplex vertex per draw
        patch.setattr(problem, "ENUM_CAP", 0)
        samples = sample_unique_limit(config.lp, x_star, noise, 40)
    for i, sample in enumerate(samples):
        g = noise.draw(i)
        point, value = split_solve(config.lp, free, g)
        assert sample.g.tobytes() == g.tobytes()
        assert sample.optimal_set.vertices.tobytes() == point[None, :].tobytes()
        assert sample.objective == value


# ------------------------------------------------------- non-finite data

def test_programs_reject_non_finite_data(ot_lp):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteData):
            ot_lp.with_rhs([bad, 0.5, 0.5])
        with pytest.raises(NonFiniteData):
            StandardLp([[1.0, bad]], [1.0], [0.0, 0.0])
        with pytest.raises(NonFiniteData):
            StandardLp([[1.0, 1.0]], [bad], [0.0, 0.0])
        with pytest.raises(NonFiniteData):
            StandardLp([[1.0, 1.0]], [1.0], [bad, 0.0])
    assert issubclass(NonFiniteData, LpError) and issubclass(NonFiniteData, ValueError)


# ------------------------------------------------------ carried distances

def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _limit_case(build):
    config = build()
    return config.lp, config.targets.vertices[0], config.b_sampler.limit_noise(31, config.lp.k)


def _half_tied_case():
    """One row: a draw ``g > 0`` ties the vertices ``g e_0`` and ``g e_1``,
    one ``g < 0`` has the single vertex ``-g e_2``."""
    lp = StandardLp([[1.0, 1.0, -1.0]], [1.0], [1.0, 1.0, 1.0])
    return lp, np.zeros(3), NoiseSampler(GaussianLaw([[1.0]]), 32)


LIMIT_CASES = {"ot2x2": lambda: _limit_case(build_ot_2x2),
               "mcf": lambda: _limit_case(build_min_cost_flow),
               "half_tied": _half_tied_case}


@pytest.mark.parametrize("vertex_only", [False, True])
@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_carried_distances_equal_per_draw_statistics(monkeypatch, name, vertex_only):
    """3000 draws cross two block boundaries; each carried distance has the
    bits of ``math.sqrt(v @ v)`` and of the statistic of the same sample
    built by hand, as the traced benchmark run builds it.  A tied draw
    carries none, and its statistic is Wolfe's.  ``vertex_only`` puts the
    response LP above the enumeration cap, so each draw is a simplex vertex."""
    lp, x_star, noise = LIMIT_CASES[name]()
    with monkeypatch.context() as patch:
        if vertex_only:
            patch.setattr(problem, "ENUM_CAP", 0)
        samples = sample_unique_limit(lp, x_star, noise, 3000)
    tied = 0
    for sample in samples:
        by_hand = LimitSample(g=sample.g, optimal_set=sample.optimal_set,
                              objective=sample.objective)
        assert by_hand.distance is None
        verts = sample.optimal_set.vertices
        if len(verts) == 1:
            want = math.sqrt(verts[0] @ verts[0])
            assert type(sample.distance) is float and _bits(sample.distance) == _bits(want)
        else:
            tied += 1
            assert sample.distance is None
            want = min_norm_point(sample.optimal_set, np.zeros(len(x_star)))[1]
        assert _bits(distance_statistic(sample)) == _bits(want)
        assert _bits(distance_statistic(by_hand)) == _bits(want)
    if name == "half_tied" and not vertex_only:
        assert 1000 < tied < 2000
    else:
        assert tied == 0


@pytest.mark.parametrize("statistic", ["distance", "hausdorff"])
def test_limit_comparison_equals_per_draw_wolfe(statistic):
    """``run_limit_comparison`` against the same comparison with Wolfe's
    algorithm on every draw, on each draw's optimal set at a ``with_rhs``
    program: ``min_norm_point`` from the target vertex to the set, or the
    two-sided Hausdorff form."""
    config, n, draws, seed = build_ot_2x2(), 200, 2000, 41
    rate = float(n) ** config.rate_exponent
    origin = Polytope([np.zeros(config.lp.m)])
    finite = []
    for i in range(draws):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[1, 0, 0, i]))
        lp_n = config.lp.with_rhs(config.b_sampler.sample(config.truth_b, n, rate, rng))
        if statistic == "distance":
            finite.append(rate * min_norm_point(optimal_vertices(lp_n)[0],
                                                config.targets.vertices[0])[1])
        else:
            finite.append(rate * wolfe_hausdorff(optimal_vertices(lp_n)[0], config.targets))
    noise = config.b_sampler.limit_noise(seed, config.lp.k)
    limit = []
    for sample in sample_unique_limit(config.lp, config.targets.vertices[0], noise, draws):
        if statistic == "distance":
            limit.append(min_norm_point(sample.optimal_set, origin.vertices[0])[1])
        else:
            limit.append(wolfe_hausdorff(sample.optimal_set, origin))
    finite, limit = np.array(finite), np.array(limit)
    want = {"n": n, "draws": draws, "statistic": statistic,
            "ks_distance": kolmogorov_smirnov(finite, limit),
            "finite_mean": float(finite.mean()), "limit_mean": float(limit.mean())}
    got = run_limit_comparison(replace(config, seed=seed), n, draws, statistic=statistic)
    assert repr(got) == repr(want)


# ------------------------------------------------------------ limit blocks

def _same_record(got, want):
    """Two ``LimitSample`` records with the same bits in every field."""
    _same_samples([got], [want])
    assert (got.distance is None) == (want.distance is None)
    if got.distance is not None:
        assert _bits(got.distance) == _bits(want.distance)


def test_a_limit_block_is_a_read_only_sequence_of_records():
    lp, x_star, noise = LIMIT_CASES["half_tied"]()
    block = sample_unique_limit(lp, x_star, noise, 60)
    assert isinstance(block, LimitBlock) and len(block) == 60
    records = list(block)
    again = list(block)
    assert len(records) == len(again) == 60 and block.ties
    for i, record in enumerate(records):
        assert type(record) is LimitSample
        _same_record(record, again[i])
        _same_record(block[i], record)
        _same_record(block[i - 60], record)
    for index in (60, -61):
        with pytest.raises(IndexError):
            block[index]
    for part in (slice(5, 40), slice(None, None, 3), slice(-7, None), slice(50, 10, -4),
                 slice(30, 30)):
        sliced = block[part]
        assert isinstance(sliced, LimitBlock) and len(sliced) == len(records[part])
        for got, want in zip(sliced, records[part]):
            _same_record(got, want)
    for name in ("g", "points"):
        column = getattr(block, name)
        assert not column.flags.writeable and not getattr(block[2:9], name).flags.writeable
        with pytest.raises(ValueError):
            column[0, 0] = 1.0
    with pytest.raises(ValueError, match="statistic must be"):
        block.statistic("mean")


def test_an_empty_limit_block_has_columns_of_its_widths(ot_lp):
    noise = NoiseSampler(MultinomialLaw([0.5, 0.5], pad_to=3), 1)
    block = sample_unique_limit(ot_lp, OT_TARGET, noise, 0)
    assert len(block) == 0 and list(block) == [] and block.ties == {}
    assert block.g.shape == (0, 3) and block.points.shape == (0, 4)
    assert block.statistic("hausdorff").shape == (0,)


def test_ties_at_a_block_boundary_keep_their_draw_index(monkeypatch):
    """At seed 0 draws 1023 and 1024, the last of one solve slice and the
    first of the next (``SOLVE_CELLS`` patched to 1024 rows a slice), are
    positive, so each ties two vertices; draws 1022 and 1025 are negative
    and have one."""
    lp, x_star, _ = _half_tied_case()
    noise = NoiseSampler(GaussianLaw([[1.0]]), 0)
    enum = AuxVertexEnumerator(lp.A, lp.c, support(x_star))
    monkeypatch.setattr(problem, "SOLVE_CELLS", 1024 * len(enum.family))
    block = sample_unique_limit(lp, x_star, noise, 2048)
    positive = np.flatnonzero(block.g[:, 0] > 0).tolist()
    assert sorted(block.ties) == positive
    assert [i in block.ties for i in (1022, 1023, 1024, 1025)] == [False, True, True, False]
    for i in (1022, 1023, 1024, 1025):
        polytope, value = enum.optimal_set(noise.draw(i))
        record = block[i]
        assert record.g.tobytes() == noise.draw(i).tobytes()
        assert record.optimal_set.vertices.tobytes() == polytope.vertices.tobytes()
        assert record.objective == value
        assert (record.distance is None) == (len(polytope) == 2)
        # the first optimal vertex in basis order; a Polytope sorts its vertices
        assert block.points[i].tobytes() in [v.tobytes() for v in polytope.vertices]


@pytest.mark.parametrize("name", ["ot2x2", "mcf"])
def test_the_split_path_fills_the_same_block(monkeypatch, name):
    """Above the enumeration cap each draw is one simplex vertex: the
    block's columns are the per-draw mixed-sign solves, and each record has
    the family path's optimal value to the oracle bound.  On the transport it
    is also the family's one optimal vertex; the min-cost flow's ``x_star``
    is one of several optimal vertices, so its response program has optimal
    rays, and the two paths may stop at different points of them."""
    lp, x_star, noise = LIMIT_CASES[name]()
    exact = sample_unique_limit(lp, x_star, noise, 1100)
    with monkeypatch.context() as patch:
        patch.setattr(problem, "ENUM_CAP", 0)
        split = sample_unique_limit(lp, x_star, noise, 1100)
    assert len(split) == len(exact) and split.ties == exact.ties == {}
    assert split.g.tobytes() == exact.g.tobytes()
    assert not split.points.flags.writeable
    for i in (0, 1, 1023, 1024, 1099):
        point, value = split_solve(lp, support(x_star), noise.draw(i))
        assert split.points[i].tobytes() == point.tobytes()
        assert split.values[i] == value
        assert _bits(split.distances[i]) == _bits(math.sqrt(point @ point))
    for got, want in zip(split, exact):
        assert near(got.objective, want.objective)
        if name == "ot2x2":
            assert same_vertex_set(got.optimal_set.vertices, want.optimal_set.vertices)


@pytest.mark.parametrize("vertex_only", [False, True])
@pytest.mark.parametrize("name", sorted(LIMIT_CASES))
def test_block_statistics_equal_per_draw_statistics(monkeypatch, name, vertex_only):
    lp, x_star, noise = LIMIT_CASES[name]()
    with monkeypatch.context() as patch:
        if vertex_only:
            patch.setattr(problem, "ENUM_CAP", 0)
        block = sample_unique_limit(lp, x_star, noise, 3000)
    origin = Polytope([np.zeros(lp.m)])
    distance, spread = block.statistic("distance"), block.statistic("hausdorff")
    assert distance.shape == spread.shape == (3000,)
    for i, sample in enumerate(block):
        assert _bits(distance[i]) == _bits(distance_statistic(sample))
        assert _bits(spread[i]) == _bits(hausdorff(sample.optimal_set, origin))


def test_set_statistic_reads_a_two_vertex_row():
    """On ``x0 + x1 - x2 = r`` at unit cost a row ``r > 0`` ties the vertices
    ``r e0`` and ``r e1``, and a row ``r < 0`` has the one vertex ``-r e2``.
    About a centre off the segment, the tied row's "distance" is Wolfe's
    distance to the segment and its "hausdorff" the distance to the farther
    vertex; the untied row's is its vertex's distance for both."""
    lp = StandardLp([[1.0, 1.0, -1.0]], [1.0], [1.0, 1.0, 1.0])
    sets = problem.optimal_rows(lp, np.array([[2.0], [-3.0]])).check()
    tie = sets.polytope(0)
    assert sorted(sets.ties()) == [0] and len(tie) == 2 and len(sets.polytope(1)) == 1
    centre = np.array([1.0, 0.5, 0.0])
    distance = set_statistic(sets, centre, "distance")
    spread = set_statistic(sets, centre, "hausdorff")
    assert _bits(distance[0]) == _bits(min_norm_point(tie, centre)[1])
    assert _bits(spread[0]) == _bits(max(math.sqrt((v - centre) @ (v - centre))
                                         for v in tie.vertices))
    assert math.isclose(distance[0], 0.5 / math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(spread[0], math.sqrt(3.25), rel_tol=1e-12)
    far = np.array([0.0, 0.0, 3.0]) - centre
    assert _bits(distance[1]) == _bits(spread[1]) == _bits(math.sqrt(far @ far))
    with pytest.raises(ValueError, match="statistic must be"):
        set_statistic(sets, centre, "mean")


def test_block_statistics_reuse_the_kept_tie_polytopes(monkeypatch):
    """``block.statistic`` reads the tie Polytopes the block keeps, so it
    makes none again, and gives ``set_statistic``'s bits on its sets."""
    lp, x_star, noise = LIMIT_CASES["half_tied"]()
    block = sample_unique_limit(lp, x_star, noise, 2000)
    names = ("distance", "hausdorff")
    want = [set_statistic(block.sets, np.zeros(lp.m), name) for name in names]
    calls = []
    ties = problem.OptimalSets.ties
    monkeypatch.setattr(problem.OptimalSets, "ties", lambda sets: calls.append(1) or ties(sets))
    assert [block.statistic(name).tobytes() for name in names] == [w.tobytes() for w in want]
    assert calls == [] and len(block.ties) > 500


def test_an_untied_draw_gets_its_polytope_only_when_read(monkeypatch):
    made = []

    def counted(vertex):
        made.append(vertex)
        return one_vertex(vertex)

    one_vertex = problem._one_vertex
    monkeypatch.setattr(problem, "_one_vertex", counted)
    lp, x_star, noise = LIMIT_CASES["half_tied"]()
    block = sample_unique_limit(lp, x_star, noise, 2000)
    untied = [i for i in range(2000) if i not in block.ties]
    assert len(block.ties) > 500 and len(untied) > 500 and made == []
    for name in ("distance", "hausdorff"):
        block.statistic(name)
    assert made == []
    record = block[untied[0]]
    assert len(made) == 1 and record.optimal_set.vertices is made[0]
    assert np.shares_memory(record.optimal_set.vertices, block.points)
    assert not record.optimal_set.vertices.flags.writeable
    want = Polytope([block.points[untied[0]]]).vertices
    assert record.optimal_set.vertices.tobytes() == want.tobytes()
    block[next(iter(block.ties))]
    assert len(made) == 1
    assert sum(1 for _ in block[:100]) == 100 and len(made) == 101
