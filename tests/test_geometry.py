import math

import numpy as np
import pytest

from lpdist import Polytope, geometry
from lpdist.errors import EmptyPolytope, NoConvergence
from lpdist.geometry import (
    Direction,
    SphereGrid,
    argmax_vertex,
    hausdorff,
    min_norm_point,
    support_function,
)

SQUARE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def wolfe_hausdorff(p1: Polytope, p2: Polytope) -> float:
    """The Hausdorff distance from nearest points both ways, with no shortcut
    for a single point."""
    d12 = max(min_norm_point(p2, v)[1] for v in p1.vertices)
    d21 = max(min_norm_point(p1, v)[1] for v in p2.vertices)
    return max(d12, d21)


def test_direction_requires_unit_norm():
    Direction(np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        Direction(np.array([1.0, 1.0]))


def test_support_function_square():
    assert support_function(SQUARE, [1.0, 0.0]) == 1.0
    assert support_function(SQUARE, [-1.0, -1.0]) == 0.0
    s = 1.0 / np.sqrt(2.0)
    assert abs(support_function(SQUARE, [s, s]) - np.sqrt(2.0)) < 1e-12


def test_argmax_vertex_tie_reporting():
    vertex, unique = argmax_vertex(SQUARE, [1.0, 0.0])
    assert not unique
    assert np.allclose(vertex, [1.0, 0.0])  # lexicographically first maximizer
    vertex, unique = argmax_vertex(SQUARE, [0.9, 0.1])
    assert unique
    assert np.allclose(vertex, [1.0, 1.0])


def test_empty_polytope_raises():
    empty = Polytope(np.zeros((0, 2)))
    with pytest.raises(EmptyPolytope):
        support_function(empty, [1.0, 0.0])
    with pytest.raises(EmptyPolytope):
        min_norm_point(empty, [0.0, 0.0])


def test_min_norm_point_hand_cases():
    segment = Polytope([[0.0, 0.0], [1.0, 0.0]])
    point, dist = min_norm_point(segment, [0.3, 1.0])
    assert np.allclose(point, [0.3, 0.0], atol=1e-9)
    assert abs(dist - 1.0) < 1e-9

    # exterior query projects to the closest vertex
    point, dist = min_norm_point(segment, [2.0, 0.0])
    assert np.allclose(point, [1.0, 0.0], atol=1e-9)
    assert abs(dist - 1.0) < 1e-9

    # interior query has distance zero
    point, dist = min_norm_point(SQUARE, [0.5, 0.5])
    assert dist < 1e-6


def test_min_norm_point_validates_dimension():
    with pytest.raises(ValueError):
        min_norm_point(SQUARE, [1.0, 2.0, 3.0])


def test_min_norm_point_iteration_budget(monkeypatch):
    monkeypatch.setattr(geometry, "_wolfe_budget", lambda n, dim: 0)
    with pytest.raises(NoConvergence):
        min_norm_point(SQUARE, [5.0, 5.0])


def test_min_norm_certificates_on_random_polytopes():
    """The optimality certificate <x-z, x-v> <= tol must hold at every vertex."""
    rng = np.random.Generator(np.random.Philox(key=99, counter=[0, 0, 0, 0]))
    for _ in range(200):
        d = int(rng.integers(1, 6))
        nv = int(rng.integers(1, 10))
        poly = Polytope(rng.standard_normal((nv, d)) * 2.0)
        z = rng.standard_normal(d)
        point, dist = min_norm_point(poly, z)
        x = point - z
        gap = float(x @ x - ((poly.vertices - z) @ x).min())
        assert gap <= 1e-9
        assert abs(np.linalg.norm(x) - dist) < 1e-12


def test_min_norm_against_barycentric_grid():
    # coarse convex-combination sweep gives an upper bound certificate
    rng = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, 0, 0]))
    steps = np.linspace(0.0, 1.0, 41)
    for _ in range(25):
        verts = rng.standard_normal((3, 2)) * 1.5
        poly = Polytope(verts)
        z = rng.standard_normal(2) * 2.0
        _, dist = min_norm_point(poly, z)
        best = np.inf
        for a in steps:
            for b in steps:
                if a + b > 1.0:
                    continue
                p = a * verts[0] + b * verts[1] + (1 - a - b) * verts[2]
                best = min(best, float(np.linalg.norm(p - z)))
        assert dist <= best + 1e-9
        assert best <= dist + 0.1  # grid resolution bound


def test_hausdorff_translation_and_symmetry():
    rng = np.random.Generator(np.random.Philox(key=13, counter=[0, 0, 0, 0]))
    verts = rng.standard_normal((5, 3))
    p = Polytope(verts)
    shift = np.array([0.3, -0.2, 0.5])
    q = Polytope(verts + shift)
    d = hausdorff(p, q)
    assert abs(d - np.linalg.norm(shift)) < 1e-8
    assert abs(hausdorff(q, p) - d) < 1e-12
    assert hausdorff(p, p) == 0.0


def test_hausdorff_contained_sets():
    inner = Polytope([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75]])
    # farthest square corner from the triangle is (1, 1)
    expected = np.linalg.norm([1.0, 1.0] - np.array([0.5, 0.5]))
    assert abs(hausdorff(SQUARE, inner) - expected) < 1e-9


def test_hausdorff_triangle_inequality():
    rng = np.random.Generator(np.random.Philox(key=21, counter=[0, 0, 0, 0]))
    for _ in range(10):
        p = Polytope(rng.standard_normal((4, 2)))
        q = Polytope(rng.standard_normal((5, 2)) + 0.5)
        r = Polytope(rng.standard_normal((3, 2)) - 0.5)
        assert hausdorff(p, r) <= hausdorff(p, q) + hausdorff(q, r) + 1e-9


def test_hausdorff_equals_support_gap_in_plane():
    """For convex bodies the distance is the sup-norm gap of support functions."""
    rng = np.random.Generator(np.random.Philox(key=34, counter=[0, 0, 0, 0]))
    p = Polytope(rng.standard_normal((6, 2)))
    q = Polytope(rng.standard_normal((5, 2)) + 0.25)
    true = hausdorff(p, q)
    theta = 2.0 * np.pi * np.arange(1 << 16) / (1 << 16)
    dirs = np.column_stack([np.cos(theta), np.sin(theta)])
    vals_p = (p.vertices @ dirs.T).max(axis=0)
    vals_q = (q.vertices @ dirs.T).max(axis=0)
    est = float(np.abs(vals_p - vals_q).max())
    assert est <= true + 1e-12
    # the sup can sit at a kink of the gap function, so the error is O(step)
    assert true - est < 5e-5


def test_sphere_grid_basics():
    for dim in (2, 3, 4, 6):
        grid = SphereGrid(dim, 64)
        assert len(grid) == 64
        norms = np.linalg.norm(grid.array, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        SphereGrid(1, 8)
    with pytest.raises(ValueError):
        SphereGrid(3, 0)


def test_sphere_grid_refinement_nesting():
    # doubling the planar grid keeps every existing angle
    small = SphereGrid(2, 128).array
    large = SphereGrid(2, 256).array
    assert np.allclose(large[::2], small, atol=1e-12)
    # higher dimensions use a low-discrepancy stream whose prefixes are nested
    small4 = SphereGrid(4, 100).array
    large4 = SphereGrid(4, 300).array
    assert np.allclose(large4[:100], small4, atol=1e-12)


@pytest.mark.parametrize("m", [1, 4, 18, 25, 40])
def test_row_norms_have_the_bits_of_each_rows_dot(m):
    """Each row's norm is ``math.sqrt(v @ v)`` bit for bit, whatever the
    block: a fixed-order column sum would differ in the last place."""
    rng = np.random.Generator(np.random.Philox(key=m))
    points = rng.standard_normal((20000, m)) * rng.uniform(0.1, 10.0, size=(20000, 1))
    want = np.array([math.sqrt(v @ v) for v in points])
    assert geometry.row_norms(points).tobytes() == want.tobytes()
    alone = np.array([geometry.row_norms(v[None, :])[0] for v in points[:50]])
    assert alone.tobytes() == want[:50].tobytes()
