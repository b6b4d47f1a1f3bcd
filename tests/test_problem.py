import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor

from lpdist import Basis, Polytope, StandardLp, problem, solve
from lpdist.errors import Infeasible, InstanceTooLarge, SingularBasis
from lpdist.experiments import build_min_cost_flow
from lpdist.problem import (
    basic_solution,
    enumerate_feasible_bases,
    factor_columns,
    group_rows,
    load_lp,
    lp_to_dict,
    optimal_vertices,
    ordered_dot,
    program_duals,
    program_family,
    quiet_lu,
    support,
)
from conftest import transport_lp


def test_standard_lp_shapes_and_rank():
    lp = StandardLp([[1.0, 1.0]], [2.0], [1.0, 0.0])
    assert (lp.k, lp.m) == (1, 2)
    with pytest.raises(ValueError):
        StandardLp([[1.0, 1.0]], [2.0, 3.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        StandardLp([[1.0, 1.0]], [2.0], [1.0])
    # rank-deficient rows
    with pytest.raises(ValueError):
        StandardLp([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0], [0.0, 0.0])
    # more rows than columns
    with pytest.raises(ValueError):
        StandardLp(np.eye(3)[:, :2], [1.0, 1.0, 1.0], [0.0, 0.0])


@pytest.mark.parametrize("call", [solve, optimal_vertices])
def test_program_without_rows_is_rejected_at_construction(call):
    # numpy used to fail inside solve and optimal_vertices on such a program
    c = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="no rows"):
        call(StandardLp(np.zeros((0, 3)), [], c))
    # every row of an all-zero system is redundant
    with pytest.raises(ValueError, match="no rows"):
        call(StandardLp(np.zeros((2, 3)), [0.0, 0.0], c, drop_redundant_rows=True))


def test_arrays_are_frozen():
    lp = StandardLp(np.eye(2), [1.0, 2.0], [3.0, 4.0])
    with pytest.raises(ValueError):
        lp.A[0, 0] = 9.0
    with pytest.raises(ValueError):
        lp.b[0] = 9.0


def test_with_rhs_keeps_structure():
    lp = StandardLp(np.eye(2), [1.0, 2.0], [3.0, 4.0])
    lp2 = lp.with_rhs([5.0, 6.0])
    assert np.array_equal(lp2.A, lp.A)
    assert np.array_equal(lp2.b, [5.0, 6.0])
    assert np.array_equal(lp2.c, lp.c)


def test_redundant_row_dropping():
    # full 3x3 transport system has 6 rows of rank 5
    third = np.full(3, 1.0 / 3.0)
    A = np.zeros((6, 9))
    for i in range(3):
        for j in range(3):
            A[i, 3 * i + j] = 1.0
            A[3 + j, 3 * i + j] = 1.0
    b = np.concatenate([third, third])
    lp = StandardLp(A, b, np.ones(9), drop_redundant_rows=True)
    assert lp.k == 5
    # inconsistent duplicate row is a certificate of infeasibility
    bad = b.copy()
    bad[5] = 0.9
    with pytest.raises(Infeasible):
        StandardLp(A, bad, np.ones(9), drop_redundant_rows=True)


def test_redundant_rows_must_agree_beyond_a_relative_tolerance():
    c = [1.0, 2.0]
    lp = StandardLp([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0 + 1e-9], c, drop_redundant_rows=True)
    assert lp.k == 1
    with pytest.raises(Infeasible):
        StandardLp([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.000001], c, drop_redundant_rows=True)


def test_basis_validation():
    assert tuple(Basis((0, 1, 2))) == (0, 1, 2)
    assert len(Basis((0, 3))) == 2
    with pytest.raises(ValueError):
        Basis((1, 0))
    with pytest.raises(ValueError):
        Basis((0, 0, 1))


def test_polytope_dedup_and_sorting():
    poly = Polytope([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-12], [0.0, 1.0]])
    assert len(poly) == 2
    # lexicographic vertex order
    assert np.allclose(poly.vertices[0], [0.0, 1.0])
    assert np.allclose(poly.vertices[1], [1.0, 0.0])
    empty = Polytope(np.zeros((0, 3)))
    assert len(empty) == 0 and empty.dim == 3


def test_polytope_rejects_ragged_input():
    with pytest.raises(ValueError):
        Polytope(np.zeros((2, 2, 2)))


def test_factor_columns_detects_singular_blocks(ot_lp):
    factor_columns(ot_lp, (0, 1, 3))
    with pytest.raises(SingularBasis):
        # not a square block
        factor_columns(ot_lp, (0, 1, 2, 3))
    lp = StandardLp([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0], [0.0, 0.0, 0.0])
    with pytest.raises(SingularBasis):
        factor_columns(lp, (0, 1))


def test_basic_solution_flags(ot_lp):
    sol = basic_solution(ot_lp, Basis((0, 1, 3)))
    assert np.allclose(sol.x, [0.5, 0.0, 0.0, 0.5])
    assert sol.feasible and sol.degenerate
    display = ot_lp.with_rhs([0.55, 0.45, 0.5])
    sol2 = basic_solution(display, Basis((0, 1, 3)))
    assert np.allclose(sol2.x, [0.5, 0.05, 0.0, 0.45])
    assert sol2.feasible and not sol2.degenerate
    with pytest.raises(SingularBasis):
        basic_solution(ot_lp, Basis((0, 1)))


def test_support_thresholding():
    assert support([0.0, 1e-12, -0.5, 2.0]) == frozenset({2, 3})


def test_enumerate_feasible_bases_transport(monkeypatch, ot_lp):
    # at uniform marginals all four invertible triples give nonnegative points
    bases = enumerate_feasible_bases(ot_lp)
    assert [b.indices for b in bases] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    monkeypatch.setattr(problem, "ENUM_CAP", 2)
    with pytest.raises(InstanceTooLarge):
        enumerate_feasible_bases(ot_lp)


def test_optimal_vertices_transport(ot_lp):
    poly, bases = optimal_vertices(ot_lp)
    assert len(poly) == 1
    assert np.allclose(poly.vertices[0], [0.5, 0.0, 0.0, 0.5])
    assert {b.indices for b in bases} == {(0, 1, 3), (0, 2, 3)}


def test_optimal_vertices_infeasible():
    lp = StandardLp([[1.0, 1.0]], [-1.0], [0.0, 0.0])
    with pytest.raises(Infeasible):
        optimal_vertices(lp)


def test_optimal_vertices_two_optima():
    # min 0 over the segment x0 + x1 = 1 keeps both endpoints
    lp = StandardLp([[1.0, 1.0]], [1.0], [0.0, 0.0])
    poly, bases = optimal_vertices(lp)
    assert len(poly) == 2
    assert {b.indices for b in bases} == {(0,), (1,)}


def test_serialization_round_trip(ot_lp, tmp_path):
    data = lp_to_dict(ot_lp)
    again = load_lp(data)
    assert np.array_equal(again.A, ot_lp.A)
    assert np.array_equal(again.b, ot_lp.b)
    assert np.array_equal(again.c, ot_lp.c)

    again = load_lp(json.dumps(data))
    assert np.array_equal(again.A, ot_lp.A)

    path = tmp_path / "prog.json"
    path.write_text(json.dumps(data))
    again = load_lp(str(path))
    assert np.array_equal(again.c, ot_lp.c)

    assert load_lp(ot_lp) is ot_lp
    with pytest.raises(ValueError):
        load_lp({"A": [[1.0]], "b": [1.0]})


def test_load_lp_rejects_a_json_array_as_text_and_as_a_file(tmp_path):
    path = tmp_path / "array.json"
    path.write_text("[[1, 2]]")
    for source in ("[[1,2]]", "  [[1, 2]]", str(path)):
        with pytest.raises(ValueError, match="^problem JSON must be a JSON object, not list$"):
            load_lp(source)


def test_transport_builder_matches_hand_matrix(ot_lp):
    expected = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
    ])
    assert np.array_equal(ot_lp.A, expected)
    assert np.allclose(ot_lp.b, [0.5, 0.5, 0.5])


def test_degenerate_vertex_has_multiple_bases(ot_lp):
    # the optimal plan has support {0, 3}, strictly smaller than the basis size
    target = basic_solution(ot_lp, Basis((0, 1, 3)))
    other = basic_solution(ot_lp, Basis((0, 2, 3)))
    assert np.allclose(target.x, other.x)
    assert target.degenerate and other.degenerate
    assert support(target.x) == frozenset({0, 3})


def _lu_blocks():
    """Random real blocks, 0/±1 integer blocks (some exactly singular) and
    blocks with an exact zero pivot."""
    rng = np.random.Generator(np.random.Philox(key=23))
    for k in (1, 2, 3, 5, 8, 13):
        for _ in range(4):
            yield rng.standard_normal((k, k))
    for k in (2, 3, 4, 6):
        for _ in range(12):
            yield rng.integers(-1, 2, (k, k)).astype(float)
    yield np.zeros((0, 0))
    yield np.zeros((3, 3))
    yield np.array([[0.0, 1.0], [0.0, 1.0]])  # zero first pivot
    yield np.array([[1.0, 2.0], [2.0, 4.0]])  # zero last pivot
    yield np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])  # zero middle pivot


def test_quiet_lu_equals_scipy_lu_factor_byte_for_byte():
    singular = 0
    for block in _lu_blocks():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            want_lu, want_piv = lu_factor(block, check_finite=False)
        for layout in (block, np.asfortranarray(block)):
            lu, piv = quiet_lu(layout)
            assert lu.dtype == want_lu.dtype and piv.dtype == want_piv.dtype
            assert lu.tobytes() == want_lu.tobytes()
            assert piv.tobytes() == want_piv.tobytes()
        singular += bool((np.diagonal(want_lu) == 0.0).any())
    assert singular >= 5


def _groups_by_scan(keys, rows):
    """What ``group_rows`` promises, by a quadratic scan: for each key row whose
    bytes no earlier row has, that key and the entries whose key has its bytes."""
    same = [[a.tobytes() == b.tobytes() for b in keys] for a in keys]
    firsts = [i for i in range(len(keys)) if not any(same[i][:i])]
    return [(keys[i], rows[np.flatnonzero(same[i])]) for i in firsts]


def _shuffled_duplicates(width, dtype):
    rng = np.random.Generator(np.random.Philox(key=37))
    distinct = rng.integers(-1, 2, (7, width)).astype(dtype)
    return distinct[rng.permutation(np.repeat(np.arange(7), 1 + np.arange(7)))]


@pytest.mark.parametrize("keys", [
    np.zeros((0, 4), dtype=bool),
    np.ones((9, 3), dtype=bool),
    np.zeros((1, 13), dtype=bool),
    _shuffled_duplicates(4, bool),
    _shuffled_duplicates(18, bool),
    _shuffled_duplicates(3, float),
    np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),  # the bytes of -0.0 differ
], ids=["empty", "all-equal", "one", "bool4", "bool18", "float3", "signed-zero"])
def test_group_rows_keeps_the_order_of_first_appearance(keys):
    rows = np.arange(100, 100 + len(keys))
    got, want = group_rows(keys, rows), _groups_by_scan(keys, rows)
    assert len(got) == len(want)
    for (key, at), (want_key, want_at) in zip(got, want):
        assert key.dtype == want_key.dtype and key.tobytes() == want_key.tobytes()
        assert at.tolist() == want_at.tolist()


def _left_to_right(a_row, b_row) -> float:
    """``a_row[0] * b_row[0] + a_row[1] * b_row[1] + ...`` in Python floats."""
    total = a_row[0] * b_row[0]
    for x, y in zip(a_row[1:], b_row[1:]):
        total = total + x * y
    return total


def _spread(rng, shape):
    """Entries over sixteen decades of either sign, so the order of a sum shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


@pytest.mark.parametrize("shapes", [
    ((7,), (5, 7)),  # one vector against a matrix, as a Gaussian law's sample
    ((3, 1, 4), (2, 4)),  # rows against a basis block, as contains_rows
    ((40, 1, 13), (13, 13)),  # 520 entries: a column at a time
    ((300, 9), (300, 9)),  # row by row, as an ellipsoid's quadratic form
    ((300, 9), (9,)),  # 300 entries: a column at a time
    ((1, 1, 1, 3), (4, 3, 3)),  # one row against a stack of inverses
    ((75, 1, 1, 13), (6, 13, 13)),  # 5850 entries
    ((1, 41), (1, 41)),  # one long sum, where numpy's sum would go pairwise
])
def test_ordered_dot_adds_each_entry_left_to_right(shapes):
    rng = np.random.Generator(np.random.Philox(key=41))
    a, b = (_spread(rng, shape) for shape in shapes)
    got = ordered_dot(a, b)
    wide_a, wide_b = np.broadcast_arrays(a, b)
    assert got.shape == wide_a.shape[:-1]
    want = [_left_to_right(x, y) for x, y in zip(wide_a.reshape(-1, a.shape[-1]).tolist(),
                                                 wide_b.reshape(-1, a.shape[-1]).tolist())]
    assert np.asarray(got).ravel().tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("rows", [1, 2, 200])
def test_ordered_dot_row_does_not_depend_on_its_block(rows):
    """A block of ``rows`` rows against a (9, 9) matrix makes ``9 * rows``
    entries, a column at a time past ``ORDERED_WHOLE = 16``; each row
    equals that row alone, which takes the whole product."""
    rng = np.random.Generator(np.random.Philox(key=43))
    a, b = _spread(rng, (rows, 1, 9)), _spread(rng, (9, 9))
    block = ordered_dot(a, b)
    for row in range(rows):
        assert block[row].tobytes() == ordered_dot(a[row:row + 1], b)[0].tobytes()


def test_ordered_dot_gives_the_same_bits_either_way(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=47))
    a, b = _spread(rng, (50, 1, 7)), _spread(rng, (3, 7))
    by_columns = ordered_dot(a, b)
    monkeypatch.setattr(problem, "ORDERED_WHOLE", a.size * b.size)
    assert np.ascontiguousarray(ordered_dot(a, b)).tobytes() == by_columns.tobytes()


def _peak_bytes(call) -> int:
    """The most memory ``call()`` holds at once (numpy reports its arrays to
    ``tracemalloc``)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ordered_dot_forms_a_product_whole_by_its_size():
    """The dual window's one-row solve over 6 min-cost-flow bases (a product
    of 1014 entries) is formed whole; a product of 24544 entries, the size
    of the dual values of all 1888 bases (which ``_window`` takes as one
    BLAS product), and the full-family solve of one row (319072 entries),
    the column loop's remaining caller, are summed a column at a time."""
    config = build_min_cost_flow()
    family = program_family(config.lp)
    duals = program_duals(config.lp)[0]
    assert duals.shape == (1888, 13)
    part = family.take(range(6))
    rows = config.lp.b[None, None, None, :]
    assert _peak_bytes(lambda: ordered_dot(rows, part.inverses)) >= 8 * 1014
    assert _peak_bytes(lambda: ordered_dot(duals, config.lp.b)) < 8 * 1888 * 4
    assert _peak_bytes(lambda: ordered_dot(rows, family.inverses)) < 8 * 1888 * 13 * 4
