"""Property tests: the block optimal-set kernel against the scalar
reference, and the limit sampler's block against the kernel.

Integer data keep every basic point rational with a small denominator, so
feasibility, ties and duplicate vertices are decided far from the
tolerances and both computations must agree exactly on them.
"""
import numpy as np
import pytest

from lpdist import StandardLp
from lpdist.errors import Infeasible, LpError, Unbounded
from lpdist.limits import AuxVertexEnumerator, EmpiricalLaw, NoiseSampler, sample_unique_limit
from lpdist.problem import BasisFamily

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import optimal_sets  # noqa: E402
from test_limit_blocks import _assert_close_sets, reference_optimal_set  # noqa: E402


@st.composite
def programs(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.integers(k + 1, 6))
    ints = st.integers(-3, 3)
    a = np.array(draw(st.lists(ints, min_size=k * m, max_size=k * m)), dtype=float)
    c = np.array(draw(st.lists(ints, min_size=m, max_size=m)), dtype=float)
    free = sorted(draw(st.sets(st.integers(0, m - 1), max_size=k)))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                         min_size=1, max_size=6))
    return a.reshape(k, m), c, free, np.array(rows, dtype=float) / 2.0


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(programs())
# the family gives 5.6e-17 where getrs gives 0, which reorders the vertices
@hypothesis.example((np.array([[-1.0, 1.0, 1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, -2.0, 0.0, -1.0]]),
                     np.zeros(6), [], np.array([[0.5, -1.0]])))
def test_block_kernel_agrees_with_scalar_enumeration(program):
    """The kernel's sets, without a dual mask, are the reference's; the
    enumerator's are too, where some basis is dual feasible, and where none
    is, the response program is unbounded and it raises ``Unbounded``."""
    a, c, free, rows = program
    try:
        enum = AuxVertexEnumerator(a, c, free)
    except Infeasible:
        hypothesis.assume(False)
    expected = []
    for rhs in rows:
        try:
            expected.append(reference_optimal_set(a, c, free, rhs))
        except Infeasible:
            expected.append(None)
    if any(want is None for want in expected):
        with pytest.raises(Infeasible):
            optimal_sets(enum.family, enum.c, rows)
    feasible = [i for i, want in enumerate(expected) if want is not None]
    if feasible:
        for i, got in zip(feasible, optimal_sets(enum.family, enum.c, rows[feasible])):
            _assert_close_sets(got, expected[i])
            if has_dual_feasible_basis(enum.family, c):
                assert np.array_equal(got[0].vertices, enum.optimal_set(rows[i])[0].vertices)
            else:
                with pytest.raises(Unbounded):
                    enum.optimal_set(rows[i])


def has_dual_feasible_basis(family: BasisFamily, c: np.ndarray) -> bool:
    """Whether some basis ``B`` of ``family`` has every reduced cost
    ``c - y A``, for ``y`` solving ``y A_B = c_B``, at least ``-1e-9``."""
    for cols in family.cols:
        y = np.linalg.solve(family.A[:, cols].T, c[cols])
        if (c - y @ family.A).min() >= -1e-9:
            return True
    return False


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(programs(), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_a_limit_block_reads_as_the_kernels_optimal_sets(program, seed, draws):
    """Each record of ``sample_unique_limit``'s block has the bits of its
    row of the kernel's optimal sets at the block's noise, for noise drawn
    from the program's rows; with an infeasible row both raise
    ``Infeasible``.  When no basis of the family is dual feasible the
    response program is unbounded below, and a block with a draw and no
    infeasible one raises ``Unbounded``."""
    a, c, free, rows = program
    try:
        lp = StandardLp(a, np.zeros(len(a)), c)
        family = BasisFamily(a, fixed=free)
    except (LpError, ValueError):
        hypothesis.assume(False)
    x_star = np.zeros(lp.m)
    x_star[free] = 1.0
    noise = NoiseSampler(EmpiricalLaw(rows), seed)
    g = noise.draw_block(0, draws)
    try:
        sets = optimal_sets(family, c, g)
    except Infeasible:
        with pytest.raises(Infeasible):
            sample_unique_limit(lp, x_star, noise, draws)
        return
    if draws and not has_dual_feasible_basis(family, c):
        with pytest.raises(Unbounded):
            sample_unique_limit(lp, x_star, noise, draws)
        return
    block = sample_unique_limit(lp, x_star, noise, draws)
    assert len(block) == len(sets) == draws
    for record, (polytope, value) in zip(block, sets):
        assert record.optimal_set.vertices.shape == polytope.vertices.shape
        assert record.optimal_set.vertices.tobytes() == polytope.vertices.tobytes()
        assert np.float64(record.objective).tobytes() == np.float64(value).tobytes()
    assert block.g.tobytes() == g.tobytes()
