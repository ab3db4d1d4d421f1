import math

import mpmath
import numpy as np
import pytest

from oracles import li2_by_quadrature, li2_diff, li2_series


# ---------------------------------------------------------------------------
# dilogarithm: the oracle behind the paper's FWL rate expression
# ---------------------------------------------------------------------------

def test_dilog_trivial_and_domain():
    # Li2(0) = 0 exactly, alone and inside an array reaching the far branch
    assert li2_series(np.array([0.0]))[0] == 0.0
    assert li2_series(np.array([0.0, -0.7, -30.0]))[0] == 0.0


def test_dilog_minus_ten_against_integral_oracle():
    assert float(li2_series(np.array([-10.0]))[0]) \
        == pytest.approx(li2_by_quadrature(-10.0), abs=1e-10)


def test_dilog_against_mpmath_grid():
    grid = (-1e-8, -0.3, -0.5, -0.7, -1.0, -3.0, -25.0, -1e3, -1e6)
    for z, value in zip(grid, li2_series(np.array(grid))):
        expected = float(mpmath.polylog(2, z))
        assert float(value) == pytest.approx(expected, abs=1e-12, rel=1e-12)


def test_dilog_monotone_decreasing():
    vals = li2_series(-np.logspace(-6, 6, 200))
    assert np.all(np.diff(vals) < 0)


def test_dilog_diff_matches_direct_and_stays_stable():
    # li2_diff is the difference rate_fwl_series sums: a far pair subtracts
    # two series values, a near pair takes the Gauss-Legendre branch, which
    # is checked against the analytic derivative of Li2
    z = -37.0
    eps = z * 1e-9
    far, near = li2_diff(np.array([-0.5, z - eps]), np.array([-2.0, z]))
    assert far == pytest.approx(float(np.subtract(*li2_series(np.array([-0.5, -2.0])))),
                                rel=1e-13)
    assert near == pytest.approx(-math.log1p(-z) / z * (-eps), rel=1e-6)
