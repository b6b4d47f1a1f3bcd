"""Property test of the box that bounds a many-row block's dual window.

A block of more rows than ``SOLVE_CELLS // len(family)`` first drops the
bases that a box over its rows proves lie in no row's window
(``problem._box``), and only the rest get the exact window test.  With
``SOLVE_CELLS`` patched to 17 bases' worth of rows, every family's blocks of
18 rows or more take the box, as the min-cost flow's do by default.  Each
block mixes rows near ``b`` at two spreads, near-degenerate rows, a row
above the family's room and ``-b``, which has no feasible basis on every
program whose columns do not span the whole space by nonnegative
combinations.  The windowed program (its dual memo made with
``WINDOW_CELLS = 0``) must give the block the bits that the full one
(``WINDOW_CELLS = inf``) gives it: points, values, bases, groups and error
messages.
"""
import numpy as np
import pytest

from lpdist import problem
from lpdist.problem import optimal_rows, program_duals, program_family

from test_dual_window import _pair, _rhs, near_degenerate
from test_iter_bases import PROGRAMS

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# rows of one slice of the per-row window path, once ``SOLVE_CELLS`` is patched
SLICE = 17


def sets_bits(sets) -> tuple:
    """Every field of an ``OptimalSets`` as bytes, lists and messages; the
    groups row by row, since how they split the rows follows the slices
    the rows were solved in."""
    groups = {row: (block.tobytes(), first.tolist(), tied.tolist())
              for rows, kept, first, tied in sets.groups
              for row, block in zip(rows.tolist(), kept)}
    errors = {row: (type(exc).__name__, str(exc)) for row, exc in sets.errors.items()}
    return sets.points.tobytes(), sets.values, sets.bases.tobytes(), groups, errors


@st.composite
def box_blocks(draw, index):
    """A block of ``PROGRAMS[index]``'s right-hand sides, in a drawn order:
    ``SLICE - 1`` or more near its ``b``, alternately at spreads 0.1 and
    0.9, one to three near-degenerate ones, one above the room and
    ``-b``; so more than ``SLICE`` within the room, where it is not small."""
    lp, slater = PROGRAMS[index]
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=SLICE - 1, max_size=SLICE + 8))
    rows = [_rhs(lp, slater, seed, spread) for seed, spread in zip(seeds, [0.1, 0.9] * len(seeds))]
    degenerate = draw(st.lists(near_degenerate(index), min_size=1, max_size=3))
    rows += [b for _, b in degenerate]
    huge = lp.A @ slater
    rows += [2.0 * program_family(lp)._room * huge / np.abs(huge).max(), -lp.b]
    order = draw(st.permutations(range(len(rows))))
    return np.array(rows)[order]


@pytest.mark.parametrize("index", range(len(PROGRAMS)))
@hypothesis.settings(max_examples=10, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_the_box_gives_a_block_the_full_familys_bits(index, data):
    rhs = data.draw(box_blocks(index))
    windowed, full = _pair(index)
    family = program_family(windowed)
    boxed, box = [], problem._box
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(problem, "SOLVE_CELLS", SLICE * len(family))
        patch.setattr(problem, "_box", lambda *args: boxed.append(len(args[3])) or box(*args))
        got = sets_bits(optimal_rows(windowed, rhs))
        want = sets_bits(optimal_rows(full, rhs))
    assert got == want
    # the box ran once, on the rows within the room, when the family has a
    # window and they are more than a slice (program 3's room is about 0.3)
    in_room = int((np.abs(rhs).max(axis=1) <= family._room).sum())
    windows = program_duals(windowed)[2] is not None
    assert boxed == ([in_room] if windows and in_room > SLICE else [])
    if index in (0, 1):  # both built-ins are infeasible at -b
        assert ("Infeasible", "no feasible basis") in got[4].values()
