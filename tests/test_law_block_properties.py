"""Property tests of the noise laws' finite-sample block form.

``sample_rows`` draws each row from its own stream and transforms the rows
as one block.  Each row must have the bits of the per-row formula on a
freshly built ``Philox(key=seed, counter=[*lead, i])`` generator, and the
uniform that stream draws next, the coverage pick, must follow the row's
variates.  The references below are those per-row formulas, with every sum
written out in index order.
"""
import numpy as np
import pytest

from lpdist.experiments import _then_pick
from lpdist.limits import GaussianLaw, MultinomialLaw, _philox_key, philox_streams

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def fresh(seed, lead, index):
    # a list counter goes through float64 in numpy, which rounds entries >= 2**53
    counter = np.array([*lead, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def gaussian_row(sigma, place, truth, rate, rng):
    """The truth plus the Cholesky product of ``r`` normals, placed on the
    support, over the rate."""
    chol = np.linalg.cholesky(sigma).tolist()
    z = rng.standard_normal(len(chol)).tolist()
    shift = [0.0] * len(truth)
    for at, row in zip(place, chol):
        total = z[0] * row[0]
        for zj, cj in zip(z[1:], row[1:]):
            total += zj * cj
        shift[at] = total
    return [t + s / rate for t, s in zip(truth.tolist(), shift)]


def multinomial_row(p, tail, n, rng):
    """The frequencies of a multinomial(n, p) draw, then the tail."""
    return [count / float(n) for count in rng.multinomial(int(n), p).tolist()] + tail.tolist()


@st.composite
def streams(draw):
    """A seed, a counter lead and the stream indices of up to 12 rows."""
    seed = draw(st.integers(0, 2**128 - 1))
    lead = tuple(draw(st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3)))
    start = draw(st.integers(0, 2**64 - 13))
    return seed, lead, range(start, start + draw(st.integers(0, 12)))


@st.composite
def gaussian_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(1, 6))
    root = rng.standard_normal((r, r))
    sigma = root @ root.T + draw(st.sampled_from([1e-3, 0.1, 1.0])) * np.eye(r)
    sigma = (sigma + sigma.T) / 2.0
    if draw(st.booleans()):
        dim = draw(st.integers(r, 9))
        support = tuple(draw(st.permutations(range(dim)))[:r])
        law = GaussianLaw(sigma, support, dim)
    else:
        dim, support, law = r, tuple(range(r)), GaussianLaw(sigma)
    truth = rng.standard_normal(dim) * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    rate = draw(st.floats(1e-3, 1e6))
    return law, sigma, support, truth, rate


@st.composite
def multinomial_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(draw(st.integers(1, 6)))
    weights[rng.random(len(weights)) < 0.2] = 0.0  # some cells are never drawn
    weights[0] += weights.sum() == 0.0
    p = weights / weights.sum()
    tail = rng.uniform(0.0, 5.0, draw(st.integers(0, 3)))
    law = MultinomialLaw(p, tail=tail)
    return law, p, tail, draw(st.integers(1, 10**6))


def assert_rows_and_picks(law, truth, n, rate, stream, reference):
    """``sample_rows`` on ``philox_streams`` with the pick after each row,
    and the one-row ``sample`` on a fresh generator, against the reference."""
    seed, lead, indices = stream
    picks = np.empty(len(indices))
    got = law.sample_rows(truth, n, rate,
                          _then_pick(philox_streams(_philox_key(seed), lead, indices), picks))
    want, want_picks = [], []
    for index in indices:
        rng = fresh(seed, lead, index)
        want.append(reference(rng))
        want_picks.append(rng.random())
    width = len(truth)
    assert got.shape == (len(indices), width) and got.dtype == np.float64
    assert got.tobytes() == np.array(want, dtype=float).reshape(-1, width).tobytes()
    assert picks.tobytes() == np.array(want_picks).tobytes()
    for index, row, pick in zip(indices, want, want_picks):
        rng = fresh(seed, lead, index)
        assert law.sample(truth, n, rate, rng).tobytes() == np.array(row).tobytes()
        assert np.float64(rng.random()).tobytes() == np.float64(pick).tobytes()


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(gaussian_cases(), st.integers(1, 10**6), streams())
def test_gaussian_rows_have_the_per_row_bits(case, n, stream):
    law, sigma, support, truth, rate = case
    assert_rows_and_picks(law, truth, n, rate, stream,
                          lambda rng: gaussian_row(sigma, support, truth, rate, rng))


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(multinomial_cases(), st.floats(1e-3, 1e6), streams())
def test_multinomial_rows_have_the_per_row_bits(case, rate, stream):
    law, p, tail, n = case
    truth = np.concatenate([p, tail])
    assert_rows_and_picks(law, truth, n, rate, stream,
                          lambda rng: multinomial_row(p, tail, n, rng))
