"""Property test: every program ``StandardLp`` accepts has a basis.

The rank check, the enumeration and the selection basis apply one rule:
every LU pivot of a block above ``invertible_tol(A)``, grown column by
column in ``problem.greedy_columns``.  Matrices with a near-dependent row
(a row scaled by ``10^-e``, or a copy of another row plus ``10^-e`` times a
perturbation, ``e`` in 8..12) sit at the edge of that rule: each is rejected
at construction, or its family is non-empty and holds the selection basis
of the zero point.

Phase one's eviction of a zero artificial applies the same scale: a program
whose second row has pivot ``2e-10`` is accepted, and it solves to its
optimal vertex.  On these programs ``solve`` raises or returns a point that
passes ``verify_kkt``.
"""
import numpy as np
import pytest

from lpdist import StandardLp, optimal_vertices, selection_basis, solve
from lpdist.errors import Infeasible, LpError
from lpdist.problem import program_family
from lpdist.simplex import verify_kkt

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


# the row's reduced cost in phase one, -2e-9, does not pass the absolute
# entering tolerance 1e-9 * (1 + max|c|) of the artificial cost, so the
# artificial keeps its mass 2e-9 > FEAS_TOL
ENTERING_TOL_IS_ABSOLUTE = pytest.mark.xfail(raises=Infeasible, strict=True, reason=(
    "phase one's entering tolerance does not scale with A (ROADMAP item 1)"))


@pytest.mark.parametrize("scale", [1.0, pytest.param(10.0, marks=ENTERING_TOL_IS_ABSOLUTE), 100.0])
def test_a_row_with_a_tiny_pivot_solves_to_its_optimal_vertex(scale):
    """The artificial of the second row ends phase one in the basis at
    ``scale = 1``, and column 1, whose coordinate there is 2e-10, must take
    its place: 2e-10 is above the rank rule's ``1e-10 * max|A|``."""
    pivot = 2e-10 * scale
    lp = StandardLp([[1.0, 0.0, 0.0], [0.0, pivot, pivot]], [1.0, pivot], [0.0, 1.0, 2.0])
    polytope, _ = optimal_vertices(lp)
    result = solve(lp)
    assert result.basis.indices == (0, 1)
    assert len(polytope) == 1
    assert np.abs(result.x_hat - polytope.vertices[0]).max() <= 1e-12


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(near_dependent(), st.sampled_from([1.0, -1.0]))
# infeasible, yet phase one keeps the artificial mass 2e-10 <= FEAS_TOL, and
# the one basis gives x = -1
@hypothesis.example(np.array([[2e-10]]), -1.0)
def test_a_returned_solve_passes_its_kkt_check(A, sign):
    m = A.shape[1]
    try:
        lp = StandardLp(A, sign * (A @ np.ones(m)), np.zeros(m))
    except ValueError as exc:
        assert "full row rank" in str(exc)
        return
    try:
        result = solve(lp)
    except LpError:
        return
    assert verify_kkt(lp, result), result.x_hat
