"""Property tests of the block optimal-set kernel, ``problem.optimal_rows``.

Each row of a block must get what ``optimal_vertices`` gives it alone, bit
for bit: the vertex bytes and the optimal bases, or the type and message
of its ``LpError``, whatever the other rows of the block and their order.
Programs whose dual memo was made with ``WINDOW_CELLS`` patched to 0 take
the dual window wherever some basis is dual feasible, and ones made with
it patched to infinity solve every basis; both must agree with the
default.  The tie rule's array dedup must keep what ``Polytope`` keeps.
"""
import functools
import math

import numpy as np
import pytest

from lpdist import StandardLp
from lpdist import problem
from lpdist.errors import LpError
from lpdist.experiments import _sample_rows, build_min_cost_flow
from lpdist.problem import (
    DEDUP_TOL,
    Polytope,
    _keep_first,
    _lexsorted,
    optimal_rows,
    optimal_vertices,
    program_duals,
    program_family,
)

from test_iter_bases import PROGRAMS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def alone(lp, b):
    """``optimal_vertices`` at ``b`` on a ``with_rhs`` sibling of ``lp``."""
    try:
        polytope, bases = optimal_vertices(lp.with_rhs(b))
    except LpError as exc:
        return type(exc).__name__, str(exc)
    return polytope.vertices.tobytes(), [basis.indices for basis in bases]


def in_block(lp, rhs) -> list:
    """Each row's outcome from one ``optimal_rows`` call on the block ``rhs``."""
    sets = optimal_rows(lp, rhs)
    return [(type(sets.errors[row]).__name__, str(sets.errors[row])) if row in sets.errors else
            (sets.polytope(row).vertices.tobytes(),
             [tuple(cols) for cols in sets.row(row)[2].tolist()])
            for row in range(len(rhs))]


@functools.cache
def with_cells(index, cells):
    """A program of ``PROGRAMS[index]``'s data whose dual memo is made under
    ``WINDOW_CELLS = cells``."""
    lp, _ = PROGRAMS[index]
    program = StandardLp(lp.A, lp.b, lp.c)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem, "WINDOW_CELLS", cells)
        program_duals(program)
    return program


def above_the_room(lp, slater):
    """A feasible rhs, ``A`` times the Slater point scaled so that its
    largest entry is twice the family's room."""
    b = lp.A @ slater
    return 2.0 * program_family(lp)._room * b / np.abs(b).max()


@st.composite
def blocks(draw):
    """A program of ``PROGRAMS``, a block of right-hand sides of five kinds
    (near the Slater point's, a degenerate basic point, Gaussian, holding
    NaN, above the room) and an order of its rows."""
    index = draw(st.integers(0, len(PROGRAMS) - 1))
    lp, slater = PROGRAMS[index]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = program_family(lp)
    kinds = draw(st.lists(st.sampled_from(["near", "vertex", "gauss", "nan", "huge"]),
                          min_size=1, max_size=12))
    rows = []
    for kind in kinds:
        if kind == "near":
            rows.append(lp.A @ (slater * rng.uniform(0.5, 1.5, lp.m)))
        elif kind == "vertex":
            cols = family.cols[rng.integers(len(family))]
            x = rng.uniform(0.0, 2.0, lp.k) * (rng.random(lp.k) < 0.6)
            rows.append(lp.A[:, cols] @ x)
        elif kind == "gauss":
            rows.append((1.0 + np.abs(lp.b).max()) * rng.standard_normal(lp.k))
        elif kind == "nan":
            b = lp.b.copy()
            b[rng.integers(lp.k)] = np.nan
            rows.append(b)
        else:
            rows.append(above_the_room(lp, slater))
    order = draw(st.permutations(range(len(rows))))
    return index, np.array(rows), order[:draw(st.integers(1, len(rows)))]


@hypothesis.settings(max_examples=80, deadline=None, database=None)
@hypothesis.given(blocks())
def test_each_row_gets_its_lone_optimal_set(case):
    index, rhs, order = case
    lp, _ = PROGRAMS[index]
    want = [alone(lp, b) for b in rhs]
    assert in_block(lp, rhs) == want
    assert in_block(lp, rhs[order]) == [want[i] for i in order]
    for cells in (0, math.inf):  # every family in its window; none
        assert in_block(with_cells(index, cells), rhs) == want


def test_a_row_above_the_room_falls_back_to_the_full_familys_set():
    lp, slater = PROGRAMS[1]  # the min-cost flow, whose family takes the window
    assert program_duals(lp)[2] is not None
    huge = above_the_room(lp, slater)
    rhs = np.array([lp.b, huge, lp.A @ slater])
    assert not optimal_rows(lp, rhs)[-1]
    solved = list(problem._solved(program_family(lp), rhs, np.arange(len(rhs)), program_duals(lp)))
    [fallback] = [(at, part) for at, part, _ in solved if 1 in at.tolist()]
    assert fallback[0].tolist() == [1] and fallback[1] is program_family(lp)
    assert all(len(part) < len(program_family(lp)) for at, part, _ in solved if 1 not in at)
    full = in_block(with_cells(1, math.inf), rhs)
    assert in_block(lp, rhs) == full and isinstance(full[1][0], bytes)


def test_an_infeasible_row_keeps_the_other_rows_sets():
    """At the default seed, replicate 248 of the min-cost flow at ``n = 5``
    (sample-size index 2) has no feasible basis; the other 299 rows of its
    block keep their own sets."""
    config = build_min_cost_flow()
    rhs, _ = _sample_rows(config, [(2, 5, math.sqrt(5), range(300))])
    got = in_block(config.lp, rhs)
    assert [row for row, outcome in enumerate(got) if outcome[0] == "Infeasible"] == [248]
    assert got[248] == ("Infeasible", "no feasible basis")
    assert got == [alone(config.lp, b) for b in rhs]


def reference_vertices(vertices) -> np.ndarray:
    """The greedy rule one vertex at a time, as ``Polytope`` applied it
    before the block dedup: keep a vertex unless one kept before it lies
    within ``DEDUP_TOL`` in every coordinate; then ``np.lexsort`` the rows."""
    kept = []
    for v in np.asarray(vertices, dtype=float).tolist():
        if not any(all(abs(a - b) <= DEDUP_TOL for a, b in zip(v, u)) for u in kept):
            kept.append(v)
    kept = np.array(kept).reshape(len(kept), np.shape(vertices)[-1])
    return kept[np.lexsort(kept.T[::-1])]


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6),
                  st.integers(1, 4), st.sampled_from([0.4, 0.6, 0.9, 1.0, 1.1]))
def test_the_block_dedup_keeps_what_polytope_keeps(seed, rows, count, dim, step):
    """Vertices on a lattice of ``step * DEDUP_TOL`` around a random point,
    so that chains ``a ~ b ~ c`` with ``a`` far from ``c`` are common, and
    exact repeats."""
    rng = np.random.default_rng(seed)
    vertices = rng.standard_normal(dim) + step * DEDUP_TOL * rng.integers(-3, 4, (rows, count, dim))
    vertices[:, -1] = vertices[:, 0]
    keep = _keep_first(vertices)
    for row in range(rows):
        want = reference_vertices(vertices[row]).tobytes()
        got = _lexsorted(vertices[row][keep[row]]).vertices
        assert got.tobytes() == want and not got.flags.writeable
        assert Polytope(vertices[row]).vertices.tobytes() == want


def test_a_chain_keeps_its_ends():
    """``a ~ b`` and ``b ~ c`` but not ``a ~ c``: ``b`` goes, ``c`` stays."""
    chain = np.array([[[0.0], [0.6 * DEDUP_TOL], [1.2 * DEDUP_TOL]]])
    assert _keep_first(chain).tolist() == [[True, False, True]]
    assert Polytope(chain[0]).vertices.tolist() == [[0.0], [1.2 * DEDUP_TOL]]


def test_polytope_keeps_its_edge_cases():
    """No vertices, signed zeros and a read-only copy of its input."""
    assert Polytope([]).vertices.shape == (0, 0)
    assert Polytope(np.zeros((0, 3))).vertices.shape == (0, 3)
    source = np.array([[0.0, 1.0], [-0.0, 1.0], [-1.0, 2.0]])
    polytope = Polytope(source)
    assert polytope.vertices.tobytes() == reference_vertices(source).tobytes()
    assert not polytope.vertices.flags.writeable and not np.shares_memory(polytope.vertices, source)
    with pytest.raises(ValueError):
        Polytope([1.0, 2.0])
