"""The per-(A, c) basis cache: a warm re-solve is the cold solve, bit for bit."""
import numpy as np
import pytest

from lpdist import StandardLp, solve, stability_report
from lpdist.errors import LpError
from lpdist.experiments import build_min_cost_flow, build_ot_2x2, optimal_face_vertices
from lpdist.problem import CACHE_SIZE, enumerate_feasible_bases, optimal_vertices


def _random_instance(rng, bounded):
    """Gaussian ``A``, so rhs entries of both signs occur; a dual-feasible
    cost with forced zero reduced costs when ``bounded``, a free one else."""
    while True:
        k = int(rng.integers(1, 6))
        m = int(rng.integers(k + 1, 11))
        A = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(A) < k:
            continue
        b = A @ rng.uniform(0.2, 2.0, size=m)
        if not bounded:
            return StandardLp(A, b, rng.standard_normal(m))
        s = np.abs(rng.standard_normal(m))
        s[rng.random(m) < 0.3] = 0.0  # zero reduced costs force ties
        return StandardLp(A, b, A.T @ rng.standard_normal(k) + s)


def _rhs_values(rng, lp, count):
    """Feasible rhs values, some degenerate, and arbitrary ones."""
    out = []
    for i in range(count):
        x = rng.uniform(0.0, 2.0, size=lp.m)
        if i % 3 == 0:
            x[rng.random(lp.m) < 0.5] = 0.0
        out.append(lp.A @ x if i % 4 else 2.0 * rng.standard_normal(lp.k))
    return out


def _outcome(lp):
    try:
        result = solve(lp)
    except LpError as exc:
        return type(exc)
    faces = optimal_face_vertices(lp, result)
    return (result.basis, result.x_hat.tobytes(), result.dual.tobytes(),
            result.slack.tobytes(), repr(result.objective),
            [(basis, x.tobytes()) for basis, x in faces])


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _arrays(getattr(value, name))


def _assert_read_only(lp):
    arrays = [arr for entry in lp.basis_cache._entries.values() for arr in _arrays(entry)]
    assert arrays
    assert not any(arr.flags.writeable for arr in arrays)


def test_warm_solves_equal_cold_solves_bit_for_bit():
    rng = np.random.Generator(np.random.Philox(key=2024, counter=[0, 0, 0, 0]))
    errors, signs = set(), set()
    for i in range(60):
        parent = _random_instance(rng, bounded=i % 3 != 0)
        for b in _rhs_values(rng, parent, 12):
            signs.add(bool((b < 0).any()))
            warm = _outcome(parent.with_rhs(b))
            cold = _outcome(StandardLp(parent.A, b, parent.c))
            assert warm == cold
            if isinstance(cold, type):
                errors.add(cold.__name__)
        _assert_read_only(parent)
    assert signs == {True, False}
    assert {"Infeasible", "Unbounded"} <= errors


@pytest.mark.parametrize("build", [build_ot_2x2, build_min_cost_flow])
def test_builtin_replicates_re_solve_bit_for_bit(build):
    config = build()
    rng = np.random.Generator(np.random.Philox(key=99, counter=[0, 0, 0, 0]))
    for n in config.n_values:
        rate = float(n) ** config.rate_exponent
        for _ in range(40):
            b_n = config.b_sampler.sample(config.truth_b, n, rate, rng)
            cold = _outcome(StandardLp(config.lp.A, b_n, config.lp.c))
            assert _outcome(config.lp.with_rhs(b_n)) == cold
    assert config.lp.basis_cache.lookups > config.lp.basis_cache.misses
    _assert_read_only(config.lp)


def test_with_rhs_shares_the_cache_and_checks_the_length():
    lp = StandardLp(np.eye(2), [1.0, 2.0], [3.0, 4.0])
    shifted = lp.with_rhs([5.0, 6.0])
    assert shifted.basis_cache is lp.basis_cache
    assert StandardLp(lp.A, lp.b, lp.c).basis_cache is not lp.basis_cache
    with pytest.raises(ValueError):
        lp.with_rhs([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        lp.with_rhs([1.0])


def test_cache_stays_within_its_bound_over_a_long_run():
    rng = np.random.Generator(np.random.Philox(key=5, counter=[0, 0, 0, 0]))
    A = rng.standard_normal((6, 14))
    lp = StandardLp(A, A @ np.ones(14), np.abs(rng.standard_normal(14)))
    sizes = []
    for _ in range(300):
        b = rng.standard_normal(6)
        warm = _outcome(lp.with_rhs(b))
        sizes.append(len(lp.basis_cache))
        if len(sizes) % 50 == 0:
            assert warm == _outcome(StandardLp(A, b, lp.c))
    assert lp.basis_cache.misses > CACHE_SIZE  # entries were dropped
    assert max(sizes) <= CACHE_SIZE


def test_enumeration_leaves_the_cache_empty(ot_lp):
    config = build_min_cost_flow()  # enumerates every basis of the program
    assert len(config.lp.basis_cache) == 0
    enumerate_feasible_bases(config.lp)
    optimal_vertices(config.lp.with_rhs(config.lp.b * 1.01))
    stability_report(ot_lp, np.full(4, 0.25))
    assert len(config.lp.basis_cache) == 0
    assert len(ot_lp.basis_cache) == 0
