import numpy as np
import pytest
import scipy.stats
from scipy.special import chdtr

from lpdist.quantiles import chi_square_quantile, two_sided_normal_quantile

# frozen from scipy.stats: chi2.ppf(0.95, 1), chi2.ppf(0.95, 4), norm.ppf(0.975)
CHI2_95_1 = 3.841458820694124
CHI2_95_4 = 9.487729036781154
Z_975 = 1.959963984540054


def test_frozen_quantiles():
    assert abs(chi_square_quantile(0.95, 1) - CHI2_95_1) < 1e-9
    assert abs(chi_square_quantile(0.95, 4) - CHI2_95_4) < 1e-9
    assert abs(two_sided_normal_quantile(0.05) - Z_975) < 1e-9


def test_against_scipy_sweep():
    for dof in (1, 2, 3, 7, 15):
        for p in (0.01, 0.2, 0.5, 0.9, 0.975, 0.999):
            mine = chi_square_quantile(p, dof)
            ref = scipy.stats.chi2.ppf(p, dof)
            assert abs(mine - ref) < 1e-8, (dof, p)


def test_cdf_quantile_inverse():
    for dof in (1, 4, 9):
        for p in (0.05, 0.5, 0.95):
            assert abs(chdtr(dof, chi_square_quantile(p, dof)) - p) < 1e-10


def test_quantile_monotone_in_p():
    values = [chi_square_quantile(p, 5) for p in np.linspace(0.01, 0.99, 25)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_invalid_arguments():
    with pytest.raises(ValueError):
        chi_square_quantile(0.0, 1)
    with pytest.raises(ValueError):
        chi_square_quantile(1.0, 1)
    with pytest.raises(ValueError):
        chi_square_quantile(0.5, 0)


def test_two_sided_matches_symmetric_tail():
    # P(|Z| <= z) = 1 - alpha  <=>  z = Phi^{-1}(1 - alpha/2)
    for alpha in (0.01, 0.05, 0.2):
        assert abs(two_sided_normal_quantile(alpha) - scipy.stats.norm.ppf(1 - alpha / 2)) < 1e-8
