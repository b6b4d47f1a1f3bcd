"""Shared builders for the test suite, and the hypothesis profile.

The property tests draw the same examples on every run: the profile
``derandomized`` is loaded here.  ``pytest --hypothesis-profile=default``
draws new examples on each run instead.

BLAS runs on one thread unless the environment says otherwise, as in CI
and ``perfbench/run.py``: the variables are set before numpy is imported,
because OpenBLAS reads them once, when it loads.  A threaded OpenBLAS
spends far longer starting threads than on the suite's tiny solves.
"""
import json
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (after the thread settings above)
import pytest  # noqa: E402

from lpdist import StandardLp, problem  # noqa: E402

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def transport_lp(row_marginals, col_marginals, cost):
    """Standard-form transport program with the last column row dropped.

    Row-major plan coordinates; dropping one marginal row keeps the
    constraint matrix at full row rank.
    """
    rows = np.asarray(row_marginals, dtype=float)
    cols = np.asarray(col_marginals, dtype=float)
    nr, nc = len(rows), len(cols)
    A = np.zeros((nr + nc - 1, nr * nc))
    for i in range(nr):
        for j in range(nc):
            A[i, i * nc + j] = 1.0
            if j < nc - 1:
                A[nr + j, i * nc + j] = 1.0
    b = np.concatenate([rows, cols[:-1]])
    return StandardLp(A, b, np.asarray(cost, dtype=float))


def optimal_sets(family, c, rows, duals=None) -> list:
    """``(Polytope of optimal vertices, optimal value)`` at each row of the
    ``(N, k)`` block ``rows`` over the basis family ``family``, read from
    ``problem.block_sets``' ``OptimalSets``; any row's error raises the
    block's error (``OptimalSets.check``)."""
    sets = problem.block_sets(family, c, rows, duals).check()
    return list(zip(sets.polytopes(), sets.values))


@pytest.fixture
def ot_lp():
    """2x2 transport instance with uniform marginals and anti-diagonal reward."""
    return transport_lp([0.5, 0.5], [0.5, 0.5], [0.0, 1.0, 1.0, 0.0])


@pytest.fixture
def ones_3x3_lp():
    """3x3 transport with constant cost: the whole feasible set is optimal."""
    third = np.full(3, 1.0 / 3.0)
    return transport_lp(third, third, np.ones(9))


@pytest.fixture
def write_json(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write
