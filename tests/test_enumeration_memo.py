"""The per-program enumeration memo against fresh programs, byte for byte.

A program's first enumeration builds its ``BasisFamily`` (the invertible
column blocks with their inverses), and ``stability_report`` keeps its
b-free half (inverse norms, ``c1``, ``c2``).  Both live in the basis cache that ``with_rhs``
shares.  The memo must not change an output bit, so every check of a warm
program against a fresh one compares bytes or reprs; the one-pass ``getrs``
loop is the oracle for the report's floats, within ``ORACLE_BOUND``.  The
checks also count the factorizations and SVDs the memo saves.
"""
import math

import numpy as np
import pytest

from lpdist import StandardLp, stability_report
from lpdist import problem
from lpdist.errors import InstanceTooLarge, LpError
from lpdist.problem import (
    FEAS_TOL,
    enumerate_feasible_bases,
    iter_bases,
    optimal_vertices,
    program_family,
    quiet_lu,
    solve_lu,
)
from lpdist.stability import check_basis_inclusion, check_hausdorff_lipschitz

from test_iter_bases import CAPPED, PROGRAMS, near


def _fresh(lp, b=None):
    return StandardLp(lp.A, lp.b if b is None else b, lp.c)


def _shifted(lp, slater):
    """Two feasible right-hand sides near ``lp.b``, and a Slater point of the first."""
    x1 = slater * np.linspace(0.9, 1.1, lp.m)
    x2 = slater * np.linspace(1.05, 0.95, lp.m)
    return lp.A @ x1, lp.A @ x2, x1


def _outcome(call):
    """``call()``, or the type and message of the ``LpError`` it raises."""
    try:
        return call()
    except LpError as exc:
        return (type(exc).__name__, str(exc))


def _optimal(lp):
    polytope, optimal = optimal_vertices(lp)
    return polytope.vertices.tobytes(), [basis.indices for basis in optimal]


def _outputs(program, slater, b1, b2):
    """Every enumerating entry point, each on the program ``program()``
    returns, or the ``LpError`` it raises (``Unbounded`` on a program with no
    dual feasible basis)."""
    return tuple(_outcome(call) for call in (
        lambda: _optimal(program()),
        lambda: [basis.indices for basis in enumerate_feasible_bases(program())],
        lambda: repr(stability_report(program(), slater)),
        lambda: check_basis_inclusion(program(), b1),
        lambda: repr(check_hausdorff_lipschitz(program(), b1, b2)),
    ))


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_warm_programs_and_their_siblings_match_fresh_programs(lp, slater):
    b1, b2, slater1 = _shifted(lp, slater)
    want = _outputs(lambda: _fresh(lp), slater, b1, b2)
    want_shifted = _outputs(lambda: _fresh(lp, b1), slater1, b2, lp.b)

    program = _fresh(lp)
    before = program.with_rhs(b1)
    stability_report(before, slater1)  # a sibling fills both memos
    memo = program.basis_cache
    assert memo.family is not None and memo.stability is not None
    after = program.with_rhs(b1)
    assert _outputs(lambda: program, slater, b1, b2) == want
    assert _outputs(lambda: before, slater1, b2, lp.b) == want_shifted
    assert _outputs(lambda: after, slater1, b2, lp.b) == want_shifted
    assert len(memo) == 0


def reference_report(lp, x0, feas_tol=FEAS_TOL):
    """The one-pass loop ``stability_report`` ran before the memo, with
    ``np.linalg.norm(inverse, 2)`` per basis."""
    delta_b0, delta_b1, tau, c1 = math.inf, math.inf, 0.0, 0.0
    slack_tol = 1e-9 * (1.0 + np.abs(lp.c).max(initial=0.0))
    dual_norms = []
    for cols, lu_piv in iter_bases(lp.A):
        inv_norm = float(np.linalg.norm(solve_lu(lu_piv, np.eye(lp.k)), 2))
        c1 = max(c1, inv_norm)
        x_basis = solve_lu(lu_piv, lp.b)
        strictly_negative = x_basis[x_basis < -feas_tol]
        if strictly_negative.size:
            delta_b0 = min(delta_b0, float(np.abs(strictly_negative).min()) / inv_norm)
        if x_basis.min() >= -feas_tol:
            if math.isinf(delta_b1):
                delta_b1 = float(x0.min()) / inv_norm
            positive = x_basis[x_basis > feas_tol]
            if positive.size:
                tau = max(tau, float(positive.min()))
        lam = solve_lu(lu_piv, lp.c[list(cols)], trans=1)
        if (lp.A.T @ lam - lp.c).max() <= slack_tol:
            dual_norms.append(float(np.linalg.norm(lam)))
    c2 = max(dual_norms, default=math.inf)
    return (delta_b0, delta_b1, tau, c1, c2,
            min(delta_b0, delta_b1, tau / c1 if c1 > 0 else math.inf))


def _fields(report):
    return (report.delta_b0, report.delta_b1, report.tau, report.c1, report.c2,
            report.delta_star)


@pytest.mark.parametrize("lp, slater", PROGRAMS)
def test_report_equals_the_one_pass_loop_cold_and_warm(lp, slater):
    b1, _, slater1 = _shifted(lp, slater)
    program = _fresh(lp)
    sibling = program.with_rhs(b1)
    for _ in range(2):
        for prog, point in ((program, slater), (sibling, slater1)):
            assert near(_fields(stability_report(prog, point)), reference_report(prog, point))
    norms = [np.linalg.norm(solve_lu(lu_piv, np.eye(lp.k)), 2) for _, lu_piv in iter_bases(lp.A)]
    assert program.basis_cache.stability[0].tobytes() == np.array(norms).tobytes()


def test_feasibility_tolerance_is_applied_on_warm_calls(monkeypatch, ot_lp):
    """Only the b-free half is kept: warm calls at two ``with_rhs``
    right-hand sides get a fresh program's radii, under ``FEAS_TOL`` as it
    stands when they run."""
    cases = [(np.full(3, 0.5), np.full(4, 0.25)),
             (np.array([0.55, 0.45, 0.5]), np.array([0.3, 0.25, 0.2, 0.25]))]
    for feas_tol in (FEAS_TOL, 0.3, FEAS_TOL):
        monkeypatch.setattr(problem, "FEAS_TOL", feas_tol)
        for b, slater in cases + cases[::-1]:
            want = stability_report(_fresh(ot_lp, b), slater)
            assert stability_report(ot_lp.with_rhs(b), slater) == want
            assert near(_fields(want), reference_report(ot_lp.with_rhs(b), slater, feas_tol))


@pytest.fixture
def counters(monkeypatch):
    """``(factored, svds)``: lists that grow by one per ``problem.quiet_lu``
    and per ``np.linalg.svd`` call."""
    factored, svds = [], []
    svd = np.linalg.svd

    def counting_lu(block):
        factored.append(block.shape)
        return quiet_lu(block)

    def counting_svd(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(problem, "quiet_lu", counting_lu)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return factored, svds


def _counted(counters, call):
    for calls in counters:
        calls.clear()
    call()
    return tuple(len(calls) for calls in counters)


@pytest.mark.parametrize("index", [0, 1, 2])  # ot2x2; mcf, 1888 of 8568 invertible; random
@pytest.mark.parametrize("report_first", [False, True])
def test_only_the_first_pass_factors_every_block(counters, index, report_first):
    lp, slater = PROGRAMS[index]
    b1, _, slater1 = _shifted(lp, slater)
    program = _fresh(lp)
    sibling = program.with_rhs(b1)
    total = math.comb(lp.m, lp.k)
    invertible = sum(1 for _ in iter_bases(lp.A))
    svds = 1  # one call over the family's stack of inverses
    if report_first:
        assert _counted(counters, lambda: stability_report(program, slater)) == (total, svds)
    else:
        assert _counted(counters, lambda: enumerate_feasible_bases(program)) == (total, 0)
        assert _counted(counters, lambda: stability_report(program, slater)) == (0, svds)
    assert len(program.basis_cache.family) == invertible
    for call in (lambda: stability_report(program, slater),
                 lambda: stability_report(sibling, slater1),
                 lambda: stability_report(program.with_rhs(b1), slater1),
                 lambda: optimal_vertices(program),
                 lambda: optimal_vertices(sibling),
                 lambda: enumerate_feasible_bases(sibling)):
        assert _counted(counters, call) == (0, 0)


def test_a_build_that_raises_leaves_no_family(monkeypatch, counters):
    lp, _ = PROGRAMS[1]
    program = _fresh(lp)
    factored, _ = counters
    built = len(factored)  # the blocks the rank check of the fresh program factored
    counting_lu = problem.quiet_lu

    def failing_lu(block):
        if len(factored) == built + 5:
            raise RuntimeError("factorization failed")
        return counting_lu(block)

    monkeypatch.setattr(problem, "quiet_lu", failing_lu)
    with pytest.raises(RuntimeError):
        optimal_vertices(program)
    assert program.basis_cache.family is None
    monkeypatch.setattr(problem, "quiet_lu", counting_lu)
    assert _counted(counters, lambda: optimal_vertices(program))[0] == math.comb(lp.m, lp.k)
    assert program.basis_cache.family is not None


@pytest.mark.parametrize("enumerate_all", [program_family] + CAPPED)
def test_cap_is_checked_before_any_factorization_on_a_warm_program(monkeypatch, counters,
                                                                   ot_lp, enumerate_all):
    stability_report(ot_lp, np.full(4, 0.25))
    assert ot_lp.basis_cache.family is not None
    factored, _ = counters
    factored.clear()
    monkeypatch.setattr(problem, "ENUM_CAP", 3)
    with pytest.raises(InstanceTooLarge):
        enumerate_all(ot_lp)
    assert factored == []
