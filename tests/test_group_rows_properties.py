"""Property tests of ``problem.group_rows``.

Rows are one key when their bytes are equal, so ``-0.0`` and ``0.0`` are
two keys and a NaN is one key with itself.  Bool keys are packed eight to a
byte before they are sorted, so widths past 64 bits are drawn too, with
patterns that differ in one bit only.  The reference is the quadratic scan
of ``tests/test_problem.py``: the same keys' bytes, the same groups, in the
same order.
"""
import numpy as np
import pytest

from lpdist.problem import group_rows
from test_problem import _groups_by_scan

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

FLOATS = np.array([0.0, -0.0, 1.0, -1.5, np.inf, np.nan])


@st.composite
def bool_keys(draw):
    """Up to 300 rows of a few bool patterns 1 to 80 wide; each pattern after
    the first differs from an earlier one in one bit or at random."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 80))
    patterns = [rng.random(width) < 0.5]
    for _ in range(draw(st.integers(0, 5))):
        pattern = patterns[rng.integers(len(patterns))].copy()
        if draw(st.booleans()):
            pattern[rng.integers(width)] ^= True
        else:
            pattern = rng.random(width) < 0.5
        patterns.append(pattern)
    return np.array(patterns)[rng.integers(len(patterns), size=draw(st.integers(0, 300)))]


@st.composite
def float_keys(draw):
    """Up to 300 rows of a few float patterns 1 to 6 wide, over entries that
    include both zeros, an infinity and a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patterns = FLOATS[rng.integers(len(FLOATS), size=(draw(st.integers(1, 6)),
                                                      draw(st.integers(1, 6))))]
    return patterns[rng.integers(len(patterns), size=draw(st.integers(0, 300)))]


def assert_groups_match_scan(keys):
    rows = 7 + 3 * np.arange(len(keys))
    got, want = group_rows(keys, rows), _groups_by_scan(keys, rows)
    assert len(got) == len(want)
    for (key, at), (want_key, want_at) in zip(got, want):
        assert key.dtype == want_key.dtype and key.tobytes() == want_key.tobytes()
        assert at.tolist() == want_at.tolist()


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(bool_keys())
def test_bool_keys_group_as_the_scan_does(keys):
    assert_groups_match_scan(keys)


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(float_keys())
def test_float_keys_group_by_their_bytes_as_the_scan_does(keys):
    assert_groups_match_scan(keys)
