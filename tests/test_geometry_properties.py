"""Property test: the Hausdorff distance between a point and a polytope.

``hausdorff`` takes the largest vertex distance when one side is a single
point; the two-sided form runs Wolfe's algorithm from every vertex of each
side to the other.  The farthest point of a polytope from a point is a
vertex, and the point's distance to the polytope is no larger, so the two
must agree bit for bit.
"""
import numpy as np
import pytest

from lpdist import Polytope
from lpdist.errors import NoConvergence
from lpdist.geometry import hausdorff

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_geometry import wolfe_hausdorff  # noqa: E402


@st.composite
def point_and_polytope(draw):
    dim = draw(st.integers(1, 5))
    coords = st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), min_size=dim, max_size=dim)
    vertices = draw(st.lists(coords, min_size=1, max_size=5))
    return Polytope([draw(coords)]), Polytope(vertices)


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(point_and_polytope())
def test_hausdorff_to_a_point_equals_the_two_sided_wolfe_form(case):
    point, polytope = case
    try:
        want = wolfe_hausdorff(point, polytope)
    except NoConvergence:
        hypothesis.assume(False)
    for got in (hausdorff(point, polytope), hausdorff(polytope, point)):
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
