"""Chi-square and two-sided normal quantiles from the inverse chi-square tail."""
from __future__ import annotations

import math

from scipy.special import chdtri


def chi_square_quantile(p: float, dof: int) -> float:
    """The x with P(chi2_dof <= x) = p: the inverse of the upper tail at ``1 - p``."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if dof < 1:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    return float(chdtri(dof, 1.0 - p))


def two_sided_normal_quantile(alpha: float) -> float:
    """z with P(|Z| <= z) = 1 - alpha for a standard normal Z.

    Uses the identity Z^2 ~ chi2 with one degree of freedom.
    """
    return math.sqrt(chi_square_quantile(1.0 - alpha, 1))
