"""The per-program memo ``lp.at_b``, byte for byte.

``basic_points``, ``optimal_vertices`` and ``stability_report`` keep what
depends on the program's own ``b`` in ``lp.at_b``: the basic points of
every basis of its family, the optimal set, and the report's b-half.
``optimal_vertices`` keeps the basic points only when it solved every
basis: above ``WINDOW_CELLS`` it solves the bases of its dual window.
Unlike the basis cache, the memo depends on ``b``, so a ``with_rhs``
sibling must start without it.  Every check compares a memoised result
with the same call on a fresh program.
"""
import dataclasses
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import block_diag

from lpdist import StandardLp, stability_report
from lpdist import problem
from lpdist.confidence import SegmentFamilyRegion
from lpdist.experiments import build_min_cost_flow, build_ot_2x2, run_coverage
from lpdist.geometry import min_norm_point
from lpdist.errors import Infeasible, LpError, NotSlater, Unbounded
from lpdist.problem import (
    Basis,
    BasisFamily,
    basic_points,
    basic_solution,
    enumerate_feasible_bases,
    optimal_vertices,
    program_family,
)
from lpdist.stability import check_basis_inclusion

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


# each entry point that reads the memo, as bytes or reprs of its result
ENTRY_POINTS = {
    "optimal_vertices": lambda lp, x0: _outcome(lambda: _optimal(lp)),
    "enumerate_feasible_bases": lambda lp, x0: _outcome(
        lambda: [basis.indices for basis in enumerate_feasible_bases(lp)]),
    "stability_report": lambda lp, x0: _outcome(lambda: repr(stability_report(lp, x0))),
}


def _fresh(lp, b):
    return StandardLp(lp.A, b, lp.c)


def _windowed(lp) -> bool:
    """Whether ``optimal_vertices`` takes its dual window on ``lp``'s family."""
    return program_family(lp).inverses.size > problem.WINDOW_CELLS


def _kept(lp) -> set:
    """The entries ``optimal_vertices`` leaves in the empty ``at_b`` of a
    program of ``lp``'s family, feasible at its ``b``: none when it raises
    ``Unbounded``, the optimal set when it solves only its window, and the
    basic points too when it solves every basis."""
    if dual_infeasible(lp):
        return set()
    return {"optimal"} if _windowed(lp) else {"points", "optimal"}


def _unbounded(lp, program) -> bool:
    """Whether ``lp`` has no dual feasible basis; if so, ``optimal_vertices``
    must raise ``Unbounded`` on every call to ``program`` and keep nothing."""
    if not dual_infeasible(lp):
        return False
    for _ in range(2):
        with pytest.raises(Unbounded):
            optimal_vertices(program)
        assert "optimal" not in program.at_b
    return True


def _shifted(lp, slater, weights):
    """A right-hand side ``A x`` near ``lp.b`` and its Slater point ``x``."""
    x = slater * weights
    return lp.A @ x, x


@pytest.mark.parametrize("order", [list(ENTRY_POINTS), list(ENTRY_POINTS)[::-1]])
@pytest.mark.parametrize("sibling_first", [False, True])
@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_sibling_never_sees_its_parents_points(lp, slater, sibling_first, order):
    b2, x2 = _shifted(lp, slater, np.linspace(0.9, 1.1, lp.m))
    fresh = _fresh(lp, b2)
    want = {name: ENTRY_POINTS[name](fresh, x2) for name in order}
    parent = _fresh(lp, lp.b)
    early = parent.with_rhs(b2)
    _outcome(lambda: optimal_vertices(parent))
    sibling = early if sibling_first else parent.with_rhs(b2)
    assert sibling.at_b == {} and set(parent.at_b) == _kept(lp)
    assert {name: ENTRY_POINTS[name](sibling, x2) for name in order} == want
    assert basic_points(sibling).tobytes() == basic_points(fresh).tobytes()
    assert basic_points(parent).tobytes() == basic_points(_fresh(lp, lp.b)).tobytes()


@pytest.fixture
def family_solves(monkeypatch):
    """``(bases, rows)`` of each ``BasisFamily.solve`` call made so far."""
    calls = []
    original = BasisFamily.solve

    def counting(self, rows):
        calls.append((len(self), len(rows)))
        return original(self, rows)

    monkeypatch.setattr(BasisFamily, "solve", counting)
    return calls


@pytest.mark.parametrize("first", list(ENTRY_POINTS))
@pytest.mark.parametrize("lp, slater", PROGRAMS[:3])
def test_a_program_is_solved_at_its_own_rhs_once(lp, slater, first, family_solves):
    """Every family solve is of one row.  A program's basic points are
    solved once.  Above ``WINDOW_CELLS``, ``optimal_vertices`` solves only
    the bases of its window, once per program: on the min-cost flow 43 of
    its 1888 bases at its own b, where many share the optimal value, and 6
    at ``b2``."""
    program = _fresh(lp, lp.b)
    whole = [(len(program_family(program)), 1)]
    own, shifted = ([(43, 1)], [(6, 1)]) if _windowed(lp) else (whole, whole)
    window_first = first == "optimal_vertices" and _windowed(lp)
    ENTRY_POINTS[first](program, slater)
    assert family_solves == (own if window_first else whole)
    for call in ENTRY_POINTS.values():
        call(program, slater)
    assert family_solves == (own + whole if window_first else whole)
    family_solves.clear()
    b2, _ = _shifted(lp, slater, np.linspace(1.05, 0.95, lp.m))
    assert check_basis_inclusion(program, b2) == check_basis_inclusion(_fresh(lp, lp.b), b2)
    # this program's b2, then a fresh program's b and b2
    assert family_solves == shifted + own + shifted


def test_memoised_points_are_a_read_only_copy(ot_lp):
    points = basic_points(ot_lp)
    family = program_family(ot_lp)
    assert points.shape == (len(family), ot_lp.k)
    assert not points.flags.writeable and points.flags.owndata
    with pytest.raises(ValueError):
        points[0, 0] = 1.0
    assert basic_points(ot_lp) is points
    assert points.tobytes() == family.solve(ot_lp.b[None, :])[:, 0].tobytes()


def _report_bytes(report):
    return np.array(dataclasses.astuple(report)).tobytes()


def _other_slater(lp, slater):
    """A second Slater point of ``lp``: halfway from ``slater`` to its first
    feasible basic point, so its smallest entry, and ``delta_b1``, differ."""
    return 0.5 * (slater + basic_solution(lp, enumerate_feasible_bases(lp)[0]).x)


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_memoised_optimal_set_is_a_fresh_programs(lp, slater):
    program = _fresh(lp, lp.b)
    first = _outcome(lambda: _optimal(program))
    assert ("optimal" in program.at_b) == (not dual_infeasible(lp))
    assert _outcome(lambda: _optimal(program)) == first == _outcome(
        lambda: _optimal(_fresh(lp, lp.b)))


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_memoised_report_is_a_fresh_programs_at_each_slater_point(lp, slater):
    program = _fresh(lp, lp.b)
    points = (slater, _other_slater(lp, slater), slater)
    reports = [stability_report(program, x0) for x0 in points]
    assert "stability" in program.at_b
    assert reports[0].delta_b1 != reports[1].delta_b1  # never read from the memo
    for x0, report in zip(points, reports):
        assert _report_bytes(report) == _report_bytes(stability_report(_fresh(lp, lp.b), x0))


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_a_sibling_starts_with_an_empty_memo(lp, slater):
    program = _fresh(lp, lp.b)
    stability_report(program, slater)
    _outcome(lambda: optimal_vertices(program))
    assert set(program.at_b) == {"points", "stability"} | _kept(lp)
    sibling = program.with_rhs(lp.b)  # even at the same b
    assert sibling.at_b == {} and sibling.with_rhs(lp.b).at_b == {}
    _outcome(lambda: optimal_vertices(sibling))
    assert sibling.at_b is not program.at_b and "stability" not in sibling.at_b


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_a_returned_basis_list_is_the_callers(lp, slater):
    program = _fresh(lp, lp.b)
    if _unbounded(lp, program):
        return
    _, bases = optimal_vertices(program)
    want = list(bases)
    bases.clear()
    bases.append(Basis(range(lp.k)))
    _, again = optimal_vertices(program)
    assert again == want and again is not bases


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_memoised_optimal_vertices_are_read_only(lp, slater):
    program = _fresh(lp, lp.b)
    if _unbounded(lp, program):
        return
    optimal_vertices(program)
    polytope, _ = optimal_vertices(program)
    assert not polytope.vertices.flags.writeable
    with pytest.raises(ValueError):
        polytope.vertices[0, 0] = 1.0
    assert polytope.vertices.tobytes() == optimal_vertices(_fresh(lp, lp.b))[0].vertices.tobytes()


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_an_infeasible_program_raises_on_every_call_and_keeps_nothing(lp, slater):
    # one more column and row, whose coordinate must equal -1
    program = StandardLp(block_diag(lp.A, 1.0), np.append(lp.b, -1.0), np.append(lp.c, 0.0))
    for _ in range(2):
        with pytest.raises(Infeasible):
            optimal_vertices(program)
        with pytest.raises(NotSlater):
            stability_report(program, np.append(slater, 1.0))
        assert program.at_b == {}
    assert enumerate_feasible_bases(program) == []
    with pytest.raises(Infeasible):
        optimal_vertices(program)
    assert set(program.at_b) == {"points"}


@st.composite
def rhs_sequences(draw):
    """A program of ``PROGRAMS`` and steps ``(weights, sign, parent, names)``:
    the right-hand side ``sign * A (slater * weights)``, whether it is
    derived from the root program or from the previous step's program, and
    the entry points to call on it in order."""
    index = draw(st.integers(0, len(PROGRAMS) - 1))
    m = PROGRAMS[index][0].m
    step = st.tuples(
        st.lists(st.floats(0.5, 1.5), min_size=m, max_size=m),
        st.sampled_from([1.0, 1.0, 1.0, -1.0]),
        st.booleans(),
        st.lists(st.sampled_from(list(ENTRY_POINTS)), min_size=1, max_size=4),
    )
    return index, draw(st.lists(step, min_size=1, max_size=4))


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(rhs_sequences())
def test_memoised_results_equal_fresh_programs(case):
    index, steps = case
    lp, slater = PROGRAMS[index]
    root = previous = _fresh(lp, lp.b)
    for weights, sign, from_root, names in steps:
        b, x = _shifted(lp, slater, np.array(weights))
        program = (root if from_root else previous).with_rhs(sign * b)
        fresh = _fresh(lp, sign * b)
        for name in names + names + ["optimal_vertices"]:
            assert ENTRY_POINTS[name](program, x) == ENTRY_POINTS[name](fresh, x)
        for name in names:
            assert ENTRY_POINTS[name](root, slater) == ENTRY_POINTS[name](_fresh(lp, lp.b), slater)
        previous = program



def _parts(lp, kind) -> dict:
    """The coverage parts of ``kind``, "mapped" or "projection", that
    ``run_coverage`` keeps in ``lp.at_b``, by basis and, for a mapped
    region, the region's id."""
    return {key[1:]: value for key, value in lp.at_b.items()
            if isinstance(key, tuple) and key[0] == kind}


def test_coverage_parts_follow_the_region():
    """A config whose region is replaced shares the program, so its mapped
    regions are kept under the new region's id beside the old ones, and its
    records equal those of a fresh program; the narrower region covers
    less, so a stale image would show."""
    config = build_ot_2x2()
    narrow = SegmentFamilyRegion((1.0, -1.0, 0.0), 0.2, coverage_target=0.95)
    settings = dict(n_values=(10, 100), replicates=60, keep_log=True)
    wide = run_coverage(config, **settings)
    swapped = replace(config, region=narrow)
    assert swapped.lp is config.lp
    got = run_coverage(swapped, **settings)
    assert got == run_coverage(replace(build_ot_2x2(), region=narrow), **settings)
    assert [row.covered for row in got.rows] < [row.covered for row in wide.rows]
    mapped = _parts(config.lp, "mapped")
    assert {id(region) for region, _ in mapped.values()} == {id(config.region), id(narrow)}
    for (basis, region_id), (region, parts) in mapped.items():
        assert (parts.basis.indices, id(parts.region), id(region)) == (basis, region_id, region_id)
    assert run_coverage(config, **settings) == wide


def test_coverage_parts_are_not_shared_with_a_sibling():
    """A ``with_rhs`` sibling starts without its parent's parts: its own
    projections are made at its own ``b``, and its records equal a fresh
    program's."""
    config = build_min_cost_flow()
    settings = dict(n_values=(50,), replicates=40, keep_log=True)
    run_coverage(config, **settings)
    slater = PROGRAMS[1][1]
    sibling = config.lp.with_rhs(config.lp.A @ (slater * np.linspace(0.9, 1.1, config.lp.m)))
    shifted = replace(config, lp=sibling)
    assert _parts(sibling, "mapped") == _parts(sibling, "projection") == {}
    got = run_coverage(shifted, **settings)
    fresh = replace(config, lp=StandardLp(sibling.A, sibling.b, sibling.c))
    assert got == run_coverage(fresh, **settings)
    parent = _parts(config.lp, "projection")
    assert parent.keys() & _parts(sibling, "projection").keys()
    for key, projection in _parts(sibling, "projection").items():
        anchor = basic_solution(sibling, Basis(key[0])).x
        assert projection.tobytes() == min_norm_point(shifted.targets, anchor)[0].tobytes()
        if key in parent:
            assert projection.tobytes() != parent[key].tobytes()
