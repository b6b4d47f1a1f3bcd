"""Property tests of the block simplex: ``solve_rows`` and ``solve_block``
give each row the bits ``solve`` gives it alone, whatever the block around
it, and the block ratio test keeps Bland's rule of ties to the lowest basic
column.
"""
import numpy as np
import pytest

from lpdist import StandardLp, solve, solve_rows
from lpdist.errors import LpError
from lpdist.simplex import _pivot, ratio_test, solve_block

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _solve_alone(A, b, c):
    try:
        return solve(StandardLp(A, b, c))
    except LpError as exc:
        return exc


def _bits(result):
    if isinstance(result, LpError):
        return type(result).__name__, str(result)
    return (result.basis.indices, result.x_hat.tobytes(), repr(result.objective),
            result.dual.tobytes(), result.slack.tobytes())


@st.composite
def blocks(draw):
    """A small program, rhs rows of both signs (some feasible by
    construction), and a permuted subset of them."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k + 1, 8))
    while True:
        A = rng.standard_normal((k, m))
        if np.linalg.matrix_rank(A) == k:
            break
    if draw(st.booleans()):  # dual feasible, with zero reduced costs forcing ties
        slack = np.abs(rng.standard_normal(m))
        slack[rng.random(m) < 0.3] = 0.0
        c = A.T @ rng.standard_normal(k) + slack
    else:
        c = rng.standard_normal(m)
    count = draw(st.integers(1, 12))
    rows = np.array([A @ rng.uniform(0.0, 2.0, m) if rng.random() < 0.6
                     else 2.0 * rng.standard_normal(k) for _ in range(count)])
    order = draw(st.permutations(range(count)))
    keep = draw(st.integers(1, count))
    return A, c, rows, list(order[:keep])


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(blocks())
def test_solve_rows_gives_each_row_its_lone_solve(case):
    A, c, rows, order = case
    lp = StandardLp(A, rows[0], c)
    results = [_solve_alone(A, b, c) for b in rows]
    alone = list(map(_bits, results))
    assert [_bits(result) for result in solve_rows(lp, rows)] == alone
    assert [_bits(result) for result in solve_rows(lp, rows[order])] == \
        [alone[i] for i in order]
    sets = solve_block(lp, rows)
    for row, result in enumerate(results):
        if isinstance(result, LpError):
            assert _bits(sets.errors[row]) == _bits(result)
            continue
        assert sets.points[row].tobytes() == result.x_hat.tobytes()
        assert tuple(sets.bases[row].tolist()) == result.basis.indices
        assert repr(sets.values[row]) == repr(result.objective)


def reference_leaving(x_b, rows, direction, basis):
    """Bland's leaving row for one rhs: least ratio, ties to the lowest
    basic column."""
    ratios = np.maximum(x_b[rows], 0.0) / direction
    best = ratios.min()
    ties = rows[ratios <= best + 1e-12 * (1.0 + best)]
    return min(ties, key=lambda row: basis[row])


@hypothesis.settings(max_examples=100, deadline=None, database=None)
@hypothesis.given(st.integers(0, 2**32 - 1))
def test_ratio_test_breaks_ties_by_lowest_basic_column(seed):
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(2, 6)), 9
    A = rng.standard_normal((k, m))
    basis = [int(j) for j in rng.permutation(m)[:k]]
    hypothesis.assume(abs(np.linalg.det(A[:, basis])) > 1e-3)
    step = _pivot(A, rng.standard_normal(m), basis, (1e-9, 1e-10))
    hypothesis.assume(step.entering is not None and step.rows.size > 1)
    direction = dict(zip(step.rows.tolist(), step.direction.tolist()))
    eligible = sorted(direction)
    # most eligible rows sit at the least ratio t, which is zero at times
    x_b = rng.uniform(0.0, 2.0, (8, k))
    for row in x_b:
        t = rng.choice([0.0, 0.5])
        for r in eligible:
            row[r] = (t if rng.random() < 0.7 else t + 1.0) * direction[r]
    expected = [reference_leaving(row, np.array(eligible),
                                  np.array([direction[r] for r in eligible]), basis)
                for row in x_b]
    assert ratio_test(x_b, step.rows, step.direction).tolist() == expected
