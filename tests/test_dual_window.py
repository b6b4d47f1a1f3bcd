"""``optimal_vertices``'s dual window against solving every basis, bit for bit.

Above ``WINDOW_CELLS`` inverse entries, ``optimal_vertices`` solves only
the bases whose dual value ``y_B . b`` lies near the best dual feasible
value, and falls back to solving every basis where the window does not
hold.  Each check builds two programs of the same data: ``windowed``, whose
dual memo was made with ``WINDOW_CELLS = 0`` so that every family with a
dual feasible basis takes the window, and ``full``, which never does.  Both
must give the same winner, tied bases, vertex bytes and ``LpError``
messages.  A windowed call that returns leaves the basic points out of
``at_b`` exactly when it took the window.
"""
import functools
import math

import numpy as np
import pytest

from lpdist import StandardLp
from lpdist import problem
from lpdist.errors import LpError
from lpdist.problem import (
    FEAS_TOL,
    optimal_vertices,
    program_duals,
    program_family,
    solve_lu,
)

from test_iter_bases import PROGRAMS, dual_infeasible

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _outcome(call):
    """``call()``, or the type and message of the ``LpError`` it raises."""
    try:
        return call()
    except LpError as exc:
        return (type(exc).__name__, str(exc))


def _optimal(lp):
    polytope, optimal = optimal_vertices(lp)
    return polytope.vertices.tobytes(), [basis.indices for basis in optimal]


def _with_cells(lp, cells):
    """A program of ``lp``'s data whose dual memo is made under ``WINDOW_CELLS = cells``."""
    program = StandardLp(lp.A, lp.b, lp.c)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem, "WINDOW_CELLS", cells)
        program_duals(program)
    return program


@functools.cache
def _pair(index):
    """``(windowed, full)`` programs of ``PROGRAMS[index]``."""
    lp, _ = PROGRAMS[index]
    return _with_cells(lp, 0), _with_cells(lp, math.inf)


def _both(index, b):
    """``(outcome, took_window)`` of the windowed program at ``b``, and the
    full program's outcome there."""
    windowed, full = _pair(index)
    program = windowed.with_rhs(b)
    got = _outcome(lambda: _optimal(program))
    took = "optimal" in program.at_b and "points" not in program.at_b
    return (got, took), _outcome(lambda: _optimal(full.with_rhs(b)))


def _in_room(lp, b) -> bool:
    """Whether every entry of ``b`` is within the room of ``lp``'s family;
    a rhs above it falls back (program 3's inverses reach about 1600)."""
    return np.abs(b).max() <= program_family(lp)._room


def _rhs(lp, slater, seed, spread):
    """A seeded ``A x``, ``x`` the Slater point scaled entrywise by factors
    in ``[1 - spread, 1 + spread]``."""
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
    return lp.A @ (slater * rng.uniform(1 - spread, 1 + spread, lp.m))


@pytest.mark.parametrize("spread", [0.1, 0.9])
@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_the_window_is_bit_equal_to_solving_every_basis(index, spread):
    lp, slater = PROGRAMS[index]
    for seed in range(6):
        b = _rhs(lp, slater, seed, spread)
        (got, took), want = _both(index, b)
        assert got == want
        # the window holds at every rhs near b of a bounded program, within the room
        if spread < 0.5:
            assert took == (not dual_infeasible(lp) and _in_room(lp, b))


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_the_window_at_a_degenerate_rhs_is_bit_equal(index):
    """``b' = A x`` at the optimal vertex of ``b`` with its largest basic
    coordinate set to 0: a degenerate vertex, and many bases tie."""
    lp, _ = PROGRAMS[index]
    if dual_infeasible(lp):
        return
    _, bases = optimal_vertices(lp)
    cols = list(bases[0].indices)
    x = solve_lu(problem.factor_columns(lp, cols), lp.b)
    x[np.argmax(x)] = 0.0
    b = lp.A[:, cols] @ x
    (got, took), want = _both(index, b)
    assert got == want and took == _in_room(lp, b)


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_an_infeasible_rhs_falls_back_to_the_same_error(index):
    lp, _ = PROGRAMS[index]
    (got, took), want = _both(index, -lp.b)
    assert got == want
    if isinstance(want[0], str):  # an error: ``Infeasible`` or ``Unbounded``
        assert not took
    if index in (0, 1):  # both built-ins are infeasible at -b
        assert want == ("Infeasible", "no feasible basis")


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
def test_a_rhs_above_the_room_falls_back(index):
    lp, _ = PROGRAMS[index]
    scale = 2.0 * program_family(lp)._room / np.abs(lp.b).max()
    (got, took), want = _both(index, scale * lp.b)
    assert got == want and not took


def test_the_lower_edge_keeps_a_basis_below_the_dual_bound():
    """``min 100 x1  s.t.  x0 + x1 = -5e-10``: both bases are feasible within
    ``FEAS_TOL``.  Basis (0,) is dual feasible with value 0; basis (1,), not
    dual feasible, has value -5e-8, below that bound by more than the tie
    cutoff, so it alone is optimal.  Only the lower edge's ``FEAS_TOL``
    term keeps it in the window."""
    lp = StandardLp([[1.0, 1.0]], [-5e-10], [0.0, 100.0])
    assert -FEAS_TOL <= lp.b[0] < 0
    want = _optimal(_with_cells(lp, math.inf))
    windowed = _with_cells(lp, 0)
    program = windowed.with_rhs(lp.b)
    assert _optimal(program) == want
    assert want[1] == [(1,)] and "points" not in program.at_b
    # with the lower edge cut to its rounding term, the window misses it
    duals, feasible, (_, _, rounding) = program_duals(windowed)
    windowed.basis_cache.duals = (duals, feasible, (rounding, 0.0, rounding))
    assert _optimal(windowed.with_rhs(lp.b))[1] == [(0,)]


@pytest.mark.parametrize("index", [0, 1, 2])  # ot2x2; the min-cost flow; a random program
def test_both_sides_of_the_size_constant_give_the_same_bits(index):
    lp, slater = PROGRAMS[index]
    program = StandardLp(lp.A, lp.b, lp.c)
    # the min-cost flow's 1888 bases of 13 x 13 are above the constant; the others below
    assert (program_duals(program)[2] is not None) == (index == 1)
    for seed in range(3):
        b = _rhs(lp, slater, seed, 0.2)
        (got, _), want = _both(index, b)
        assert _outcome(lambda: _optimal(program.with_rhs(b))) == got == want


@st.composite
def near_degenerate(draw):
    """A program of ``PROGRAMS`` and ``b' = A_B x_B`` for one of its bases,
    each basic coordinate a draw from around the feasibility tolerance
    (``0``, ``+-FEAS_TOL`` and their neighbours) or from ``[0, 2]``."""
    index = draw(st.integers(0, len(PROGRAMS) - 1))
    lp, _ = PROGRAMS[index]
    family = program_family(lp)
    cols = family.cols[draw(st.integers(0, len(family) - 1))]
    small = st.sampled_from([0.0, FEAS_TOL, -FEAS_TOL, 0.5 * FEAS_TOL, -0.5 * FEAS_TOL,
                             2 * FEAS_TOL, -2 * FEAS_TOL, 1e-12, -1e-12])
    x = draw(st.lists(st.one_of(small, st.floats(0.0, 2.0)), min_size=lp.k, max_size=lp.k))
    return index, lp.A[:, cols] @ np.array(x)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(near_degenerate())
def test_the_window_is_bit_equal_at_near_degenerate_rhs(case):
    index, b = case
    (got, _), want = _both(index, b)
    assert got == want
