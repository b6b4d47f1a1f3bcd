import json

import numpy as np
import pytest

from lpdist import Basis, StandardLp, solve
from lpdist.confidence import (
    BoxRegion,
    ConfidenceSet,
    EllipsoidRegion,
    SegmentFamilyRegion,
    confidence_set,
    contains,
    contains_rows,
    coordinate_interval,
    map_region,
    region_from_dict,
)
from lpdist.errors import SingularBasis, SingularCovariance
from lpdist.geometry import min_norm_point
from lpdist.limits import GaussianLaw
from lpdist.problem import basic_solution, optimal_vertices
from lpdist.quantiles import chi_square_quantile, two_sided_normal_quantile

# frozen interval endpoints for the reported 2x2 run (n=20, marginals 0.55/0.45)
REPORTED_LO_1 = -0.1691306351441454
REPORTED_HI_1 = 0.26913063514414537
REPORTED_LO_3 = 0.23086936485585463
REPORTED_HI_3 = 0.6691306351441454


def reported_run(ot_lp):
    lp_n = ot_lp.with_rhs([0.55, 0.45, 0.5])
    result = solve(lp_n)
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], two_sided_normal_quantile(0.05) / 2.0)
    mapped = map_region(ot_lp, result.basis, region)
    return confidence_set(result, np.sqrt(20.0), mapped)


# ------------------------------------------------------------------ regions

def test_ellipsoid_region_defaults():
    region = EllipsoidRegion(np.eye(2), 0.95)
    assert abs(region.q - chi_square_quantile(0.95, 2)) < 1e-12
    assert region.coverage_target == 0.95
    override = EllipsoidRegion(np.eye(2), 0.95, q=3.0)
    assert override.q == 3.0
    with pytest.raises(ValueError):
        EllipsoidRegion(np.eye(2), 1.5)
    with pytest.raises(ValueError):
        EllipsoidRegion(np.ones((2, 3)), 0.95)
    with pytest.raises(ValueError):
        EllipsoidRegion(np.eye(2), 0.95, support_indices=(0,))


@pytest.mark.parametrize("build", [
    lambda: EllipsoidRegion(np.eye(2), 0.95, support_indices=(0, 0)),
    lambda: GaussianLaw(np.eye(2), support_indices=(0, 0)),
    lambda: GaussianLaw(np.eye(2), support_indices=(0, 0), dim=3),
])
def test_a_repeated_support_index_is_rejected(build):
    # the region would add both noise coordinates into row 0 yet read row 0
    # twice, so its interval held points it does not contain; the law kept
    # only the last draw in row 0
    with pytest.raises(ValueError, match=r"support_indices \[0\] repeat"):
        build()


def test_box_region_must_contain_origin():
    BoxRegion([-1.0, -0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        BoxRegion([0.5, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        BoxRegion([-1.0], [1.0, 1.0])


def test_segment_region_validation():
    SegmentFamilyRegion([1.0, -1.0], 0.5)
    with pytest.raises(ValueError):
        SegmentFamilyRegion([0.0, 0.0], 0.5)
    with pytest.raises(ValueError):
        SegmentFamilyRegion([1.0, 0.0], -0.1)


def test_region_round_trip_from_dict():
    seg = region_from_dict({"kind": "segment", "direction": [1.0, -1.0, 0.0],
                            "half_width": 0.5})
    assert isinstance(seg, SegmentFamilyRegion)
    ell = region_from_dict({"kind": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 2.0]],
                            "level": 0.9})
    assert isinstance(ell, EllipsoidRegion)
    box = region_from_dict({"kind": "box", "lower": [-1.0], "upper": [1.0]})
    assert isinstance(box, BoxRegion)
    with pytest.raises(ValueError):
        region_from_dict({"kind": "banana"})


@pytest.mark.parametrize("spec", [
    {"kind": "ellipsoid", "sigma": [[1.0, 0.2], [0.2, 2.0]], "level": 0.9},
    {"kind": "ellipsoid", "sigma": [[1.0]], "level": 0.95, "support_indices": [2], "q": 4.0},
    {"kind": "box", "lower": [-1.0, 0.0], "upper": [0.5, 2.0], "coverage_target": 0.8},
    {"kind": "box", "lower": [-1.0], "upper": [1.0]},
    {"kind": "segment", "direction": [1.0, -1.0, 0.0], "half_width": 0.5},
], ids=lambda spec: spec["kind"])
def test_region_to_dict_rebuilds_an_equal_region(spec):
    region = region_from_dict(spec)
    again = region_from_dict(json.loads(json.dumps(region.to_dict())))
    assert type(again) is type(region)
    assert vars(again).keys() == vars(region).keys()
    for key, value in vars(region).items():
        assert np.array_equal(vars(again)[key], value), key
    assert {key: value for key, value in region.to_dict().items() if key in spec} == spec


# ----------------------------------------------------------- the reported run

def test_reported_run_intervals(ot_lp):
    cs = reported_run(ot_lp)
    lo0, hi0 = coordinate_interval(cs, 0)
    assert lo0 == hi0 == 0.5  # basis coordinate with zero response
    lo2, hi2 = coordinate_interval(cs, 2)
    assert lo2 == hi2 == 0.0  # pinned off-basis coordinate
    lo1, hi1 = coordinate_interval(cs, 1)
    assert abs(lo1 - REPORTED_LO_1) < 1e-12
    assert abs(hi1 - REPORTED_HI_1) < 1e-12
    lo3, hi3 = coordinate_interval(cs, 3)
    assert abs(lo3 - REPORTED_LO_3) < 1e-12
    assert abs(hi3 - REPORTED_HI_3) < 1e-12


def test_reported_run_membership(ot_lp):
    cs = reported_run(ot_lp)
    assert contains(cs, cs.center)
    assert contains(cs, np.array([0.5, 0.0, 0.0, 0.5]))  # the true plan
    # endpoint of the segment family, still inside (closed set)
    t = cs.mapped.region.half_width / cs.rate
    assert contains(cs, cs.center + t * np.array([0.0, -1.0, 0.0, 1.0]))
    assert not contains(cs, cs.center + 1.01 * t * np.array([0.0, -1.0, 0.0, 1.0]))
    # any movement of the pinned coordinate leaves the set
    assert not contains(cs, np.array([0.5, 0.0, 0.01, 0.49]))
    # movement off the segment direction leaves the set
    assert not contains(cs, np.array([0.45, 0.05, 0.0, 0.5]))


def test_membership_implies_interval_containment(ot_lp):
    cs = reported_run(ot_lp)
    rng = np.random.Generator(np.random.Philox(key=6, counter=[0, 0, 0, 0]))
    hits = 0
    for _ in range(200):
        x = cs.center + rng.uniform(-0.3, 0.3) * np.array([0.0, -1.0, 0.0, 1.0])
        if contains(cs, x):
            hits += 1
            for i in range(4):
                lo, hi = coordinate_interval(cs, i)
                assert lo - 1e-9 <= x[i] <= hi + 1e-9
    assert 0 < hits < 200


def test_segment_generator_matches_linear_solve(ot_lp):
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], 0.5)
    mapped = map_region(ot_lp, Basis((0, 1, 3)), region)
    oracle = np.linalg.solve(ot_lp.A[:, [0, 1, 3]], np.array([1.0, -1.0, 0.0]))
    assert np.allclose(mapped.image[:, 0], oracle, atol=1e-12)
    assert np.allclose(oracle, [0.0, 1.0, -1.0], atol=1e-12)
    other = map_region(ot_lp, Basis((0, 2, 3)), region)
    assert np.allclose(other.image[:, 0], [1.0, -1.0, 0.0], atol=1e-12)


def test_zero_width_segment_collapses(ot_lp):
    result = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], 0.0)
    cs = confidence_set(result, np.sqrt(20.0), map_region(ot_lp, result.basis, region))
    for i in range(4):
        lo, hi = coordinate_interval(cs, i)
        assert lo == hi
    assert contains(cs, cs.center)


# ------------------------------------------------------------- ellipsoid maps

def test_ellipsoid_membership_full_rank():
    lp = StandardLp(np.eye(2), [1.0, 2.0], [1.0, 1.0])
    region = EllipsoidRegion(np.eye(2), 0.95)
    result = solve(lp)
    cs = confidence_set(result, 2.0, map_region(lp, result.basis, region))
    q = region.q
    # identity basis: membership reduces to |rate*(center-x)|^2 <= q
    inside = cs.center - np.sqrt(q) * 0.99 / 2.0 * np.array([1.0, 0.0])
    outside = cs.center - np.sqrt(q) * 1.01 / 2.0 * np.array([1.0, 0.0])
    assert contains(cs, inside)
    assert not contains(cs, outside)
    lo, hi = coordinate_interval(cs, 0)
    assert abs((hi - lo) - np.sqrt(q)) < 1e-12  # half-width sqrt(q)/rate with rate 2


def test_ellipsoid_interval_is_tight(ot_lp):
    region = EllipsoidRegion(np.diag([0.25, 0.25, 0.1]), 0.9)
    result = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    cs = confidence_set(result, 3.0, map_region(ot_lp, result.basis, region))
    rng = np.random.Generator(np.random.Philox(key=8, counter=[0, 0, 0, 0]))
    chol = np.linalg.cholesky(region.sigma)
    sup = np.zeros(4)
    for _ in range(3000):
        z = rng.standard_normal(3)
        z /= np.linalg.norm(z)
        g = chol @ z * np.sqrt(region.q)  # boundary point of the region
        y = np.zeros(4)
        y[[0, 1, 3]] = np.linalg.solve(ot_lp.A[:, [0, 1, 3]], g)
        x = cs.center - y / cs.rate
        assert contains(cs, x)
        sup = np.maximum(sup, np.abs(x - cs.center))
    for i in range(4):
        lo, hi = coordinate_interval(cs, i)
        half = (hi - lo) / 2.0
        assert sup[i] <= half + 1e-9
        assert half <= sup[i] + 0.05 * (1.0 + half)  # dense sampling approaches it


def test_ellipsoid_support_subspace(ot_lp):
    # noise only on the first two constraint rows
    region = EllipsoidRegion(np.eye(2), 0.95, support_indices=(0, 1))
    result = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    mapped = map_region(ot_lp, result.basis, region)
    assert "quadratic" not in mapped.to_dict()  # rank-deficient: no full quadratic form
    cs = confidence_set(result, 1.0, mapped)
    assert contains(cs, cs.center)
    # displacement consistent with g = (0.1, -0.2, 0) stays inside
    g = np.array([0.1, -0.2, 0.0])
    y = np.zeros(4)
    y[[0, 1, 3]] = np.linalg.solve(ot_lp.A[:, [0, 1, 3]], g)
    assert contains(cs, cs.center - y)
    # g with a third-row component is outside the support subspace
    g_bad = np.array([0.0, 0.0, 0.25])
    y_bad = np.zeros(4)
    y_bad[[0, 1, 3]] = np.linalg.solve(ot_lp.A[:, [0, 1, 3]], g_bad)
    assert not contains(cs, cs.center - y_bad)


def test_singular_covariance_rejected():
    with pytest.raises(SingularCovariance):
        EllipsoidRegion(np.zeros((3, 3)) + 1e-30, 0.95)


@pytest.mark.parametrize("build", [lambda sigma: EllipsoidRegion(sigma, 0.9), GaussianLaw],
                         ids=["region", "noise"])
def test_covariance_checks_are_shared_by_regions_and_noise_laws(build):
    with pytest.raises(SingularCovariance, match="positive definite"):
        build([[1.0, 2.0], [2.0, 1.0]])
    # numpy's Cholesky reads only the lower triangle, so this would factor as I
    with pytest.raises(ValueError, match="symmetric"):
        build([[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        build([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="NaN"):
        build([[1.0, np.nan], [np.nan, 1.0]])


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_covariance_symmetry_bound_is_relative(scale):
    near = np.array([[2.0, 0.5], [0.5 + 1e-13, 1.0]])
    EllipsoidRegion(scale * near, 0.9)
    far = np.array([[2.0, 0.5], [0.5 + 1e-6, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        EllipsoidRegion(scale * far, 0.9)


def test_quadratic_form_follows_a_permuted_support(ot_lp):
    sigma = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
    support = (2, 0, 1)
    mapped = map_region(ot_lp, Basis((0, 1, 3)), EllipsoidRegion(sigma, 0.9, support))
    quadratic = np.array(mapped.to_dict()["quadratic"])
    y = np.array([0.3, -1.2, 0.7])
    g = ot_lp.A[:, [0, 1, 3]] @ y
    assert np.isclose(y @ quadratic @ y, g[list(support)] @ np.linalg.solve(sigma, g[list(support)]))


def test_full_support_shape_mismatch(ot_lp):
    with pytest.raises(ValueError):
        map_region(ot_lp, Basis((0, 1, 3)), EllipsoidRegion(np.eye(2), 0.95))


def test_map_region_rejects_singular_basis(ot_lp):
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], 0.5)
    with pytest.raises(SingularBasis):
        map_region(ot_lp, Basis((0, 1, 2, 3)), region)


# ------------------------------------------------------------------ box maps

def test_box_intervals_sign_split():
    lp = StandardLp(np.eye(2), [1.0, 2.0], [1.0, 1.0])
    region = BoxRegion([-0.5, -1.0], [1.5, 2.0])
    result = solve(lp)
    cs = confidence_set(result, 1.0, map_region(lp, result.basis, region))
    lo0, hi0 = coordinate_interval(cs, 0)
    # identity map: interval is center - [lower, upper] reversed
    assert abs(lo0 - (1.0 - 1.5)) < 1e-12
    assert abs(hi0 - (1.0 + 0.5)) < 1e-12
    assert contains(cs, np.array([1.0, 1.5]))
    assert not contains(cs, np.array([1.0, 3.5]))


def test_box_bounds_dimension_check(ot_lp):
    with pytest.raises(ValueError):
        map_region(ot_lp, Basis((0, 1, 3)), BoxRegion([-1.0], [1.0]))


# ----------------------------------------------------------- rate equivariance

def test_rate_scaling_halves_interval(ot_lp):
    result = solve(ot_lp.with_rhs([0.55, 0.45, 0.5]))
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], 0.98)
    mapped = map_region(ot_lp, result.basis, region)
    slow = confidence_set(result, 1.0, mapped)
    fast = confidence_set(result, 2.0, mapped)
    for i in range(4):
        lo_s, hi_s = coordinate_interval(slow, i)
        lo_f, hi_f = coordinate_interval(fast, i)
        assert abs((hi_f - lo_f) - (hi_s - lo_s) / 2.0) < 1e-12


def test_confidence_set_requires_positive_rate(ot_lp):
    result = solve(ot_lp)
    region = SegmentFamilyRegion([1.0, -1.0, 0.0], 0.5)
    mapped = map_region(ot_lp, result.basis, region)
    with pytest.raises(ValueError):
        confidence_set(result, 0.0, mapped)


@pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
def test_confidence_set_checks_its_own_rate(ot_lp, rate):
    # at rate 0 every point would be inside: rate * (center - x) is 0
    mapped = map_region(ot_lp, Basis((0, 1, 3)), SegmentFamilyRegion([1.0, -1.0, 0.0], 0.5))
    with pytest.raises(ValueError, match="rate"):
        ConfidenceSet(np.array([0.5, 0.0, 0.0, 0.5]), rate, mapped)


# ------------------------------------------------------------------ projection

def _projection(lp, basis):
    """The basic point of ``basis`` projected onto the optimal set, as the
    coverage harness computes it per selection basis."""
    point, _ = min_norm_point(optimal_vertices(lp)[0], basic_solution(lp, basis).x)
    return point


def test_project_to_optimal_cases(ot_lp):
    target = np.array([0.5, 0.0, 0.0, 0.5])
    assert np.allclose(_projection(ot_lp, Basis((0, 1, 3))), target, atol=1e-9)
    assert np.allclose(_projection(ot_lp, Basis((0, 2, 3))), target, atol=1e-9)
    # a non-optimal basis projects onto the (unique) optimal plan as well
    assert np.allclose(_projection(ot_lp, Basis((0, 1, 2))), target, atol=1e-9)


# ------------------------------------------------------------------ per-row rates

# three rows, one per rate, each just past the boundary: row 0 by more than
# its own tolerance (2e-7) and rows 1 and 2 by less than theirs (about 1e-5
# and 1e-3), but each in a column whose tolerance, read as a flat (N,)
# array against the k columns, would turn the answer over
PER_ROW_RATES = np.array([1.0, 1e2, 1e4])
PER_ROW_MASK = [False, True, True]


def box_rows():
    return np.array([[0.0, 0.0, 1.0 + 1e-6], [-1.0 - 1e-6, 0.0, 0.0], [0.0, 1.0 + 1e-4, 0.0]])


def segment_rows():
    t = np.array([1.0 + 1e-6, -1.0 - 1e-6, 1.0 + 1e-4])
    return t[:, None] * np.array([1.0, -1.0, 0.0])


def ellipsoid_rows():
    # sigma diag(4, 1) on coordinates 0 and 2: row 0 leaves the support by
    # 1e-6 in coordinate 1, rows 1 and 2 lie past the bound q by 1e-6 and 1e-4
    q = chi_square_quantile(0.9, 2)
    return np.array([[0.0, 1e-6, 0.0], [2.0 * np.sqrt(q + 1e-6), 0.0, 0.0],
                     [0.0, 0.0, -np.sqrt(q + 1e-4)]])


@pytest.mark.parametrize("region, rows", [
    (BoxRegion([-1.0] * 3, [1.0] * 3), box_rows),
    (SegmentFamilyRegion([1.0, -1.0, 0.0], 1.0), segment_rows),
    (EllipsoidRegion(np.diag([4.0, 1.0]), 0.9, support_indices=(0, 2)), ellipsoid_rows),
])
def test_contains_rows_takes_each_rows_own_rate(region, rows):
    lp = StandardLp([[1.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]],
                    [1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    mapped = map_region(lp, Basis((0, 1, 2)), region)
    x = np.array([0.3, 0.2, 0.1, 0.0])
    # a block of exactly k rows whose images A_I y_I are ``rows()``
    y = np.linalg.solve(lp.A[:, :3], rows().T).T
    centers = np.tile(x, (3, 1))
    centers[:, :3] += y / PER_ROW_RATES[:, None]
    got = contains_rows(mapped, PER_ROW_RATES, centers, x)
    alone = [contains_rows(mapped, rate, centers[i:i + 1], x)[0]
             for i, rate in enumerate(PER_ROW_RATES)]
    assert got.tolist() == alone == PER_ROW_MASK
