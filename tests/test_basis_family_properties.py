"""Property tests: a basis family's block solves and optimal sets give
every row the bits it gets alone, whatever the block around it.

Integer entries make singular blocks and tied objectives exact; real
entries exercise the pivot and tie tolerances.  A pinned ill-conditioned
block exercises the entries the family hands to ``getrs``.
"""
import numpy as np
import pytest

from lpdist.errors import Infeasible
from lpdist.problem import BasisFamily

from conftest import optimal_sets
from test_basis_family import assert_rows_match_lone_solves

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _arrays(draw, shape, integer):
    entries = (st.integers(-2, 2).map(float) if integer
               else st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    size = int(np.prod(shape))
    return np.array(draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)


@st.composite
def families(draw):
    """``(family, c, rows)``: a family of a random matrix with random fixed
    columns, an objective, and a block of one to six right-hand sides."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 7))
    integer = draw(st.booleans())
    A = _arrays(draw, (k, m), integer)
    fixed = sorted(draw(st.sets(st.integers(0, m - 1), max_size=k)))
    try:
        family = BasisFamily(A, fixed=fixed)
    except Infeasible:
        hypothesis.assume(False)
    rows = _arrays(draw, (draw(st.integers(1, 6)), k), integer)
    return family, _arrays(draw, (m,), integer), rows


# the product with this block's inverse misses getrs's x_0 = 0.3 by 1e-11
ILL_CONDITIONED = (BasisFamily(np.array([[1.0, 1.0], [1.0, 1.000001]])), np.zeros(2),
                   np.array([[0.3, 0.3]]))


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(families())
@hypothesis.example(ILL_CONDITIONED)
def test_block_solve_rows_equal_single_basis_solves(case):
    family, _, rows = case
    assert_rows_match_lone_solves(family, rows)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(families())
def test_block_optimal_sets_equal_lone_row_sets(case):
    family, c, rows = case
    lone = []
    for row in rows:
        try:
            lone.append(optimal_sets(family, c, row[None, :])[0])
        except Infeasible:
            with pytest.raises(Infeasible):
                optimal_sets(family, c, rows)
            return
    for (got, got_value), (want, want_value) in zip(optimal_sets(family, c, rows), lone):
        assert got.vertices.tobytes() == want.vertices.tobytes()
        assert repr(got_value) == repr(want_value)
