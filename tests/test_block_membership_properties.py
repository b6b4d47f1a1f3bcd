"""Property tests of block membership: ``contains_rows`` over a block whose
rows have their own selection bases, rates and points must give each row
the bit ``contains`` gives that row's ``ConfidenceSet`` alone.

Each row's displacement is put on its region's boundary, or on the edge
of the off-basis tolerance, at the row's own tolerance; there the answer
turns on the last bit of ``A_I y_I``, so a sum whose order depends on the
block's shape, or a row read in another row's basis, changes it.  Both
answers must also equal ``by_hand``, which forms ``A_I y_I`` in Python
floats in index order, the order ``contains_rows`` promises; a BLAS
product, the same for a row alone and in a block, would differ from it.
"""
import numpy as np
import pytest

from lpdist import ConfidenceSet, StandardLp, contains, map_region, problem
from lpdist.confidence import (
    BoxRegion,
    EllipsoidRegion,
    RowBases,
    SegmentFamilyRegion,
    contains_rows,
)
from lpdist.errors import SingularBasis
from lpdist.problem import Basis

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def region_and_boundary(kind, k, rng):
    """A region on ``k`` rows and a function that draws a displacement ``g``
    inside it, on its boundary or just past it, at tolerance ``tol``."""
    if kind == "box":
        lower, upper = -rng.uniform(0.1, 2.0, k), rng.uniform(0.1, 2.0, k)
        lower[rng.random(k) < 0.2] = 0.0

        def draw(tol):
            g = rng.uniform(lower, upper)
            j = rng.integers(k)
            g[j] = rng.choice([upper[j] + tol, lower[j] - tol, upper[j] + 2 * tol])
            return g
        return BoxRegion(lower, upper), draw
    if kind == "segment":
        direction = rng.standard_normal(k) * 10.0 ** rng.uniform(-1, 1, k)
        half_width = rng.uniform(0.1, 2.0)

        def draw(tol):
            t = rng.choice([half_width + tol, -half_width - tol, rng.uniform(-1, 1) * half_width])
            g = t * direction
            if rng.random() < 0.3:
                g[rng.integers(k)] += rng.choice([tol, 2 * tol])
            return g
        return SegmentFamilyRegion(direction, half_width), draw
    r = int(rng.integers(1, k + 1)) if kind == "ellipsoid-support" else k
    root = rng.standard_normal((r, r))
    sigma = root @ root.T + 0.1 * np.eye(r)
    support = (tuple(rng.permutation(k)[:r].tolist()) if kind == "ellipsoid-support" else None)
    region = EllipsoidRegion(sigma, rng.uniform(0.5, 0.99), support_indices=support)
    place = list(range(k)) if support is None else list(support)

    def draw(tol):
        u = rng.standard_normal(r)
        u *= np.sqrt(region.q + rng.choice([tol, 2 * tol, -0.5 * region.q])) / np.linalg.norm(u)
        g = np.zeros(k)
        g[place] = region.chol @ u
        if support is not None and r < k and rng.random() < 0.3:
            g[rng.integers(k)] += tol
        return g
    return region, draw


@st.composite
def blocks(draw):
    """A full-rank program, the mapped regions of some of its bases, and a
    block of rows, each with its own basis, rate, centre and point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    m = k + draw(st.integers(0, 3))
    A = rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-1, 1, m)
    lp = StandardLp(A, A @ np.ones(m), np.zeros(m))
    region, boundary = region_and_boundary(
        draw(st.sampled_from(["box", "segment", "ellipsoid", "ellipsoid-support"])), k, rng)
    mapped = []
    for _ in range(draw(st.integers(1, 4))):
        cols = tuple(sorted(rng.permutation(m)[:k].tolist()))
        if np.linalg.cond(A[:, cols]) > 1e6:
            continue
        try:
            mapped.append(map_region(lp, Basis(cols), region))
        except SingularBasis:
            continue
    hypothesis.assume(mapped)
    n_rows = draw(st.integers(0, 24))
    which = rng.integers(len(mapped), size=n_rows)
    rates = 10.0 ** rng.uniform(-2, 4, n_rows)
    x = rng.standard_normal((n_rows, m)) if draw(st.booleans()) else rng.standard_normal(m)
    centers = np.empty((n_rows, m))
    for i in range(n_rows):
        tol = problem.residual_tol(rates[i])
        cols, y = list(mapped[which[i]].basis.indices), np.zeros(m)
        y[cols] = np.linalg.solve(A[:, cols], boundary(tol))
        off = mapped[which[i]].columns[k:]
        if len(off) and rng.random() < 0.3:
            y[rng.choice(off)] = rng.choice([tol, -tol, 2 * tol])
        centers[i] = (x[i] if x.ndim == 2 else x) + y / rates[i]
    return mapped, which, rates, centers, x


def alone(mapped, which, rates, centers, x):
    return [contains(ConfidenceSet(center=centers[i], rate=rates[i], mapped=mapped[which[i]]),
                     x[i] if x.ndim == 2 else x) for i in range(len(centers))]


def by_hand(mapped, which, rates, centers, x):
    """Each row's answer with ``g = A_I y_I`` summed left to right."""
    out = []
    for i, center in enumerate(centers):
        one, rate = mapped[which[i]], float(rates[i])
        y = rate * (center - (x[i] if x.ndim == 2 else x))
        tol = problem.residual_tol(rate)
        y_basis = y[list(one.basis.indices)].tolist()
        g = []
        for row in one.a_basis.tolist():
            total = row[0] * y_basis[0]
            for a, b in zip(row[1:], y_basis[1:]):
                total += a * b
            g.append(total)
        inside = bool(one.accepts(np.array([g]), np.array([tol]))[0])
        off = one.columns[len(y_basis):]
        out.append(inside and float(np.abs(y[off]).max(initial=0.0)) <= tol)
    return out


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(blocks())
def test_a_block_of_own_bases_gives_each_row_its_own_answer(case):
    mapped, which, rates, centers, x = case
    got = contains_rows(RowBases.of(mapped, which), rates, centers, x)
    assert got.dtype == bool and got.shape == (len(centers),)
    assert got.tolist() == alone(mapped, which, rates, centers, x)
    assert got.tolist() == by_hand(mapped, which, rates, centers, x)


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(blocks())
def test_a_block_in_one_basis_gives_each_row_its_own_answer(case):
    mapped, _, rates, centers, x = case
    which = np.zeros(len(centers), dtype=np.intp)
    # the rows were placed in their own bases; read in the first, each row
    # must still get what it gets alone in the first
    got = contains_rows(mapped[0], rates, centers, x)
    assert got.tolist() == alone(mapped, which, rates, centers, x)
    assert got.tolist() == by_hand(mapped, which, rates, centers, x)
