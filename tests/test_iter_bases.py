"""The one basis enumerator against the loops it replaced.

``reference_bases`` is the loop that used to be written out in each
enumerator: combinations of the free columns, an LU factorization of each
block, and the pivot test.  ``iter_bases`` must reproduce it exactly,
order and factors included, because the order breaks ties downstream.
"""
import functools
import itertools
import math

import numpy as np
import pytest
from scipy.linalg import lu_solve

from lpdist import StandardLp, stability_report
from lpdist import problem
from lpdist.errors import Infeasible, InstanceTooLarge, Unbounded
from lpdist.experiments import build_min_cost_flow, build_ot_2x2
from lpdist.geometry import SphereGrid
from lpdist.limits import AuxVertexEnumerator, limit_support_function
from lpdist.problem import (
    Basis,
    BasisFamily,
    Polytope,
    basic_solution,
    enumerate_feasible_bases,
    iter_bases,
    optimal_vertices,
    quiet_lu,
)
from lpdist.simplex import solve
from lpdist.stability import check_basis_inclusion


def reference_bases(A, fixed=()):
    k, m = A.shape
    fixed = sorted(fixed)
    others = [j for j in range(m) if j not in fixed]
    # the rule's floor: no pivot below the smallest normal float counts
    tol = max(1e-10 * np.abs(A).max(initial=0.0), np.finfo(float).tiny)
    out = []
    for extra in itertools.combinations(others, k - len(fixed)):
        cols = tuple(sorted(fixed + list(extra)))
        lu, piv = quiet_lu(A[:, list(cols)])
        if np.abs(np.diagonal(lu)).min() <= tol:
            continue
        out.append((cols, lu, piv))
    return out


# a family-kernel float may sit this far, relative to 1 + |x|, from its
# getrs oracle: the kernel rounds a k-term product sum, getrs a substitution
ORACLE_BOUND = 1e-12


def near(got, want) -> bool:
    """Whether the float arrays ``got`` and ``want`` have one shape and agree
    entry by entry within ``ORACLE_BOUND``; equal infinities agree."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        close = (got == want) | (np.abs(got - want) <= ORACLE_BOUND * (1.0 + np.abs(want)))
    return got.shape == want.shape and bool(close.all())


def same_vertex_set(got, want) -> bool:
    """Whether the rows of ``got`` and ``want`` pair off one to one as
    ``near`` rows, in any order."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    pairs = np.array([[near(g, w) for w in want] for g in got], dtype=bool).reshape(len(got), -1)
    return (got.shape == want.shape and bool((pairs.sum(axis=0) == 1).all())
            and bool((pairs.sum(axis=1) == 1).all()))


def _as_bytes(bases):
    return [(tuple(cols), lu.tobytes(), piv.tobytes()) for cols, lu, piv in bases]


def _slater(lp):
    """The mean of the feasible basic points (strictly positive on the built-ins)."""
    return np.mean([basic_solution(lp, basis).x for basis in enumerate_feasible_bases(lp)],
                   axis=0)


def _programs():
    """``(lp, slater_point)`` for both built-in programs and 20 random ones."""
    rng = np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, 0]))
    cases = [(lp, _slater(lp)) for lp in (build_ot_2x2().lp, build_min_cost_flow().lp)]
    for _ in range(20):
        k = int(rng.integers(2, 5))
        m = k + int(rng.integers(1, 4))
        A = rng.standard_normal((k, m))
        x0 = rng.uniform(0.5, 2.0, m)
        cases.append((StandardLp(A, A @ x0, rng.standard_normal(m)), x0))
    return cases


PROGRAMS = _programs()


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS])
@pytest.mark.parametrize("fixed", [(), (0,), (1, 2)])
def test_iter_bases_matches_reference_loop_on_programs(lp, fixed):
    got = [(cols, lu, piv) for cols, (lu, piv) in iter_bases(lp.A, fixed=fixed)]
    assert _as_bytes(got) == _as_bytes(reference_bases(lp.A, fixed))


# every entry point that enumerates the bases of a 3 x 4 program: with
# ``problem.ENUM_CAP`` at 3 each must raise before factoring a block
CAPPED = [
    lambda lp: list(iter_bases(lp.A)),
    lambda lp: enumerate_feasible_bases(lp),
    lambda lp: optimal_vertices(lp),
    lambda lp: BasisFamily(lp.A),
    lambda lp: AuxVertexEnumerator(lp.A, lp.c, ()),
    lambda lp: stability_report(lp, np.full(4, 0.25)),
    lambda lp: check_basis_inclusion(lp, lp.b),
    lambda lp: limit_support_function(lp, np.zeros(lp.k), SphereGrid(lp.m, 8)),
]


@pytest.mark.parametrize("enumerate_all", CAPPED)
def test_cap_is_checked_before_any_factorization(monkeypatch, ot_lp, enumerate_all):
    calls = []

    def counting_lu(block):
        calls.append(block.shape)
        return quiet_lu(block)

    monkeypatch.setattr(problem, "quiet_lu", counting_lu)
    cap = problem.ENUM_CAP
    monkeypatch.setattr(problem, "ENUM_CAP", 3)
    with pytest.raises(InstanceTooLarge):
        enumerate_all(ot_lp)
    assert calls == []
    monkeypatch.setattr(problem, "ENUM_CAP", cap)
    assert len(enumerate_feasible_bases(ot_lp)) > 0
    assert len(calls) == math.comb(ot_lp.m, ot_lp.k)


def test_default_cap_is_checked_before_any_factorization(monkeypatch):
    def refuse(block):
        raise AssertionError("a block was factored before the cap check")

    A = np.hstack([np.eye(12), np.ones((12, 28))])  # C(40, 12) blocks
    lp = StandardLp(A, A @ np.ones(40), np.zeros(40))  # its rank check factors blocks
    monkeypatch.setattr(problem, "quiet_lu", refuse)
    with pytest.raises(InstanceTooLarge):
        stability_report(lp, np.ones(40))
    with pytest.raises(InstanceTooLarge):
        AuxVertexEnumerator(A, np.zeros(40), [0])


def test_fixed_columns_cannot_outnumber_rows():
    with pytest.raises(ValueError):
        next(iter_bases(np.eye(2, 4), fixed=(0, 1, 2)))


def test_no_invertible_block_with_the_free_columns():
    with pytest.raises(Infeasible):
        AuxVertexEnumerator(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 1.0]]), np.zeros(3), [0, 1])


@pytest.mark.parametrize("lp", [lp for lp, _ in PROGRAMS])
def test_optimal_vertices_equals_feasible_bases_and_basic_solutions(lp):
    bases = enumerate_feasible_bases(lp)
    assert bases == [basis for basis in map(Basis, (cols for cols, _ in iter_bases(lp.A)))
                     if basic_solution(lp, basis).feasible]
    if dual_infeasible(lp):
        with pytest.raises(Unbounded):
            optimal_vertices(lp)
        return
    points = [basic_solution(lp, basis).x for basis in bases]
    objectives = [float(lp.c @ x) for x in points]
    best = min(objectives)
    chosen = [i for i, value in enumerate(objectives) if value - best <= 1e-8 * (1 + abs(best))]
    polytope, optimal = optimal_vertices(lp)
    assert optimal == [bases[i] for i in chosen]
    assert same_vertex_set(polytope.vertices, Polytope([points[i] for i in chosen]).vertices)


def reference_c2(lp):
    """Largest dual vertex norm, each vertex solved from an LU of ``A_B'``."""
    slack_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    norms = []
    for combo in itertools.combinations(range(lp.m), lp.k):
        lu_piv = quiet_lu(lp.A[:, combo].T)
        if np.abs(np.diagonal(lu_piv[0])).min() <= lp.rank_tol:
            continue
        lam = lu_solve(lu_piv, lp.c[list(combo)], check_finite=False)
        if (lp.A.T @ lam - lp.c).max() <= slack_tol:
            norms.append(float(np.linalg.norm(lam)))
    return max(norms, default=math.inf)


@functools.cache
def dual_infeasible(lp) -> bool:
    """Whether ``reference_c2`` finds no dual vertex of ``lp``: then ``lp``
    is unbounded wherever it is feasible."""
    return reference_c2(lp) == math.inf


def test_solve_and_optimal_vertices_are_unbounded_on_the_dual_infeasible_programs():
    unbounded = [i for i, (lp, _) in enumerate(PROGRAMS) if dual_infeasible(lp)]
    assert unbounded == [7, 11, 14, 15]
    for i, (lp, slater) in enumerate(PROGRAMS):
        program = StandardLp(lp.A, lp.b, lp.c)
        for call in (solve, optimal_vertices, lambda lp: check_basis_inclusion(lp, lp.b)):
            if i in unbounded:
                with pytest.raises(Unbounded):
                    call(program)
            else:
                call(program)
        assert (stability_report(program, slater).c2 == math.inf) == (i in unbounded)


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_c2_from_primal_factors_matches_transposed_reference(lp, slater):
    c2 = stability_report(lp, slater).c2
    want = reference_c2(lp)
    assert c2 == want or abs(c2 - want) <= 1e-12 * (1.0 + want)


@pytest.mark.parametrize("lp, slater", PROGRAMS[:2])
def test_c2_is_bit_equal_on_the_built_in_programs(lp, slater):
    assert stability_report(lp, slater).c2 == reference_c2(lp)


def test_min_cost_flow_report_is_frozen():
    report = stability_report(*PROGRAMS[1])
    assert (report.delta_b0, report.delta_b1, report.tau, report.c1, report.c2,
            report.delta_star) == (0.17058225760231288, 0.26901784355389247, 3.0,
                                   6.484054083596232, 21.307275752662516,
                                   0.17058225760231288)
