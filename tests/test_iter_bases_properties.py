"""Property test: ``iter_bases`` against the reference loop it replaced.

Integer entries make singular blocks exact; real entries exercise the
pivot tolerance.  Both must give the same blocks, in the same order, with
byte-equal factors.
"""
import numpy as np
import pytest

from lpdist.problem import iter_bases

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_iter_bases import _as_bytes, reference_bases  # noqa: E402


@st.composite
def matrices(draw):
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 7))
    if draw(st.booleans()):
        entries = st.integers(-2, 2).map(float)
    else:
        entries = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
    A = np.array(draw(st.lists(entries, min_size=k * m, max_size=k * m))).reshape(k, m)
    fixed = sorted(draw(st.sets(st.integers(0, m - 1), max_size=k)))
    return A, fixed


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(matrices())
@hypothesis.example((np.array([[5e-324]]), []))  # a subnormal pivot is not invertible
def test_iter_bases_matches_reference_loop(case):
    A, fixed = case
    got = [(cols, lu, piv) for cols, (lu, piv) in iter_bases(A, fixed=fixed)]
    assert _as_bytes(got) == _as_bytes(reference_bases(A, fixed))
