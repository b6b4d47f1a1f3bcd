"""Property test: every program ``StandardLp`` accepts has a basis.

The rank check, the enumeration and the selection basis apply one rule:
every LU pivot of a block above ``invertible_tol(A)``, grown column by
column in ``problem.greedy_columns``.  Matrices with a near-dependent row
(a row scaled by ``10^-e``, or a copy of another row plus ``10^-e`` times a
perturbation, ``e`` in 8..12) sit at the edge of that rule: each is rejected
at construction, or its family is non-empty and holds the selection basis
of the zero point.
"""
import numpy as np
import pytest

from lpdist import StandardLp, selection_basis
from lpdist.problem import program_family

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def near_dependent(draw):
    k = draw(st.integers(2, 4))
    m = draw(st.integers(k, 6))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    A = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    row = draw(st.integers(0, k - 1))
    scale = 10.0 ** -draw(st.integers(8, 12))
    if draw(st.booleans()):
        A[row] *= scale
    else:
        other = draw(st.integers(0, k - 1).filter(lambda i: i != row))
        wiggle = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        A[row] = A[other] + scale * wiggle
    return A


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(near_dependent())
# full rank, yet no 2x2 block has both LU pivots above 1e-10
@hypothesis.example(np.array([[1.0, 0.0, 0.0], [0.0, 8e-11, 8e-11]]))
def test_an_accepted_program_has_the_selection_basis_in_its_family(A):
    k, m = A.shape
    try:
        lp = StandardLp(A, A @ np.ones(m), np.zeros(m))
    except ValueError as exc:
        assert "full row rank" in str(exc)
        return
    family = program_family(lp)
    assert len(family) > 0
    basis = selection_basis(lp, np.zeros(m))
    assert basis.indices in [tuple(cols) for cols in family.cols.tolist()]
