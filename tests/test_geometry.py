import math

import mpmath
import numpy as np
import pytest
from scipy.stats import chi2

from pinchpass import outage_fwnl, outage_pwnl
from pinchpass.geometry import (
    sample_uniform_disk,
    sample_unit_disk,
    seg,
)
from pinchpass.montecarlo import _scale_draw, snr_values
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    disk_samples,
    empirical_cdf,
    params_with_a,
    polar_disk_draw,
    polar_disk_draw_squared,
    segment_distances,
)


def covered_fraction(outage, x: float, r: float, l: float) -> float:
    # P(D <= x) read off a lossless outage at A = x^2, D the horizontal
    # distance to the centered segment of half-length l (|y| at full coverage)
    return 1.0 - outage(params_with_a(x * x, SystemParams.reference(r=r, l=l))).value


@pytest.mark.parametrize("R", [1e-3, 1.0, 25.0, 1e4])
def test_seg_against_mpmath(R):
    # a whole disk exactly, then 2 * integral of sqrt(R^2 - x^2) over [a, c]
    # at 40 digits, to a few ulps of the disk area
    assert seg(R, -R, R) == R * R * math.pi
    for a, c in ((-1.0, 1.0), (0.0, 1.0), (0.5, 1.0), (-1.0, -0.999), (0.3, 0.30001),
                 (0.999999, 1.0), (-0.7, 0.2)):
        with mpmath.workdps(40):
            R_mp = mpmath.mpf(R)
            ref = 2 * mpmath.quad(lambda x: mpmath.sqrt(R_mp * R_mp - x * x),
                                  [mpmath.mpf(a * R), mpmath.mpf(c * R)])
        assert abs(seg(R, a * R, c * R) - float(ref)) <= 4e-16 * math.pi * R * R


def test_geometry_clamps_rounding_overshoot():
    # an abscissa past the edge by rounding reads as the edge; farther out
    # is a numerical error, not a clamp
    assert seg(1.0, 0.0, 1.0 + 1e-14) == seg(1.0, 0.0, 1.0)
    assert seg(1.0, -1.0 - 1e-14, 0.0) == seg(1.0, -1.0, 0.0)
    with pytest.raises(ArithmeticError, match="beyond clamp window"):
        seg(1.0, 0.0, 1.0 + 1e-6)


def test_cdf_abs_y_against_samples():
    r = 25.0
    _, y = disk_samples(r, 10_000_000, seed=101)
    frac, se = empirical_cdf(np.abs(y), r / 2)
    assert abs(covered_fraction(outage_fwnl, r / 2, r, r) - frac) <= 3 * se


def test_cdf_horizontal_distance_against_samples():
    # two points in the stadium, one with clipped caps, one in the band
    r, l = 25.0, 10.0
    d = segment_distances(r, l, 10_000_000, seed=303)
    for x in (5.0, 14.0, 20.0, 24.0):
        frac, se = empirical_cdf(d, x)
        assert abs(covered_fraction(outage_pwnl, x, r, l) - frac) <= 3 * se


def test_cdf_monotone_and_branch_continuity():
    # the partial-coverage lossless outage falls with A and is continuous
    # across the seams q = r - l and q^2 = r^2 - l^2 and at the disk edge
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = rng.uniform(5.0, 40.0)
        l = rng.uniform(0.05, 0.999) * r
        base = SystemParams.reference(r=r, l=l)
        grid = np.linspace(0.0, r, 10_000)
        vals = [outage_pwnl(params_with_a(float(x) ** 2, base)).value for x in grid]
        assert np.all(np.diff(vals) <= 1e-12)
        for x in (r - l, math.sqrt(r * r - l * l), r):
            below = outage_pwnl(params_with_a((x * (1 - 1e-12)) ** 2, base)).value
            above = outage_pwnl(params_with_a((x * (1 + 1e-12)) ** 2, base)).value
            assert abs(above - below) <= 1e-9


def test_clamp_minimizes_distance_against_grid_search():
    # the lossless SNR, with the antenna clamped to the guide, is at least
    # the best SNR over 1000 antenna positions on [-l, l]
    p = SystemParams.reference(gamma_t_db=104.0, h=10.0, l=12.5)
    gain = derive_constants(p).eta * p.p_t / p.sigma2
    rng = np.random.default_rng(5)
    candidates = np.linspace(-p.l, p.l, 1000)
    x_u = rng.uniform(-40.0, 40.0, 50)
    y_u = rng.uniform(-25.0, 25.0, 50)
    snr = snr_values(Scenario.PWNL, p, x_u, y_u)
    grid = gain / ((candidates - x_u[:, None]) ** 2 + y_u[:, None] ** 2 + p.h ** 2)
    assert np.all(snr >= grid.max(axis=1) * (1.0 - 1e-12))


def test_sampler_moments_and_determinism():
    r = 25.0
    rng = np.random.default_rng(77)
    x, y = sample_uniform_disk(rng, r, 10_000_000)
    radius = np.hypot(x, y)
    # E[radius] = 2r/3, sd[radius] = r/sqrt(18) under the uniform disk law
    se_mean = r / math.sqrt(18.0) / math.sqrt(radius.size)
    assert abs(radius.mean() - 2 * r / 3) <= 3 * se_mean
    frac = float(np.mean(radius <= r / 2))
    se_frac = math.sqrt(0.25 * 0.75 / radius.size)
    assert abs(frac - 0.25) <= 3 * se_frac

    again = sample_uniform_disk(np.random.default_rng(77), r, 10_000_000)
    assert np.array_equal(x, again[0]) and np.array_equal(y, again[1])

    sx, sy = sample_uniform_disk(np.random.default_rng(3), r)
    assert isinstance(sx, float) and math.hypot(sx, sy) <= r


def test_sampler_polar_uniformity_chi_square():
    r, n, bins = 25.0, 1_000_000, 8
    x, y = sample_uniform_disk(np.random.default_rng(1234), r, n)
    radius = np.hypot(x, y)
    angle = np.mod(np.arctan2(y, x), 2 * math.pi)
    r_edges = r * np.sqrt(np.arange(bins + 1) / bins)  # equal-area rings
    a_edges = np.linspace(0.0, 2 * math.pi, bins + 1)
    counts, _, _ = np.histogram2d(radius, angle, bins=(r_edges, a_edges))
    expected = n / (bins * bins)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(1 - 1e-3, bins * bins - 1)


def _scaled(unit, radii):
    # (x, y^2) on each radius through the chunk's scaling step: every radius
    # but the last into rows of its own, the last in place, spending the draw
    root_u, cos_t, angle = unit
    *first, last = radii
    for r in first:
        rho, x, y2 = np.empty((3, root_u.size))
        _scale_draw(root_u, cos_t, r, rho, x, y2)
        yield x, y2
    _scale_draw(root_u, cos_t, last, root_u, cos_t, angle)
    yield cos_t, angle


def test_unit_disk_scaled_per_radius_matches_direct_draws():
    # the sine-free (x, y^2) per radius, and the signed draw with its sine
    radii = [25.0, 15.0, 40.0, 0.37]
    for n in (1, 4_464, 65_536):
        positions = _scaled(sample_unit_disk(np.random.default_rng(n), n), radii)
        for r, (x, y2) in zip(radii, positions, strict=True):
            ref = polar_disk_draw_squared(np.random.default_rng(n), r, n)
            assert np.array_equal(x, ref[0]) and np.array_equal(y2, ref[1])
            direct = sample_uniform_disk(np.random.default_rng(n), r, n)
            signed = polar_disk_draw(np.random.default_rng(n), r, n)
            assert np.array_equal(direct[0], signed[0]) and np.array_equal(direct[1], signed[1])
            assert np.array_equal(direct[0], x)


@pytest.mark.parametrize("n", [4_464, 1_000_000])
def test_sine_free_draw_invariants(n):
    radii = [25.0, 0.37, 1e4]
    root_u, cos_t, angle = sample_unit_disk(np.random.default_rng(n), n)
    # positions on the x axis, where cos(t) is exactly +-1 and so is x / rho
    axis = np.arange(0, n, 97)
    cos_t[axis] = np.where(axis % 2, 1.0, -1.0)
    off_axis = np.ones(n, dtype=bool)
    off_axis[axis] = False
    positions = _scaled((root_u, cos_t, angle), radii)
    for r, (x, y2) in zip(radii, positions, strict=True):
        assert np.all(y2 >= 0.0)
        assert np.all(y2[axis] == 0.0)
        assert np.all(x * x + y2 <= r * r * (1.0 + 4.0 * np.finfo(float).eps))
        if n >= 1_000_000:
            # E[y^2] = E[rho^2] E[sin^2 t] = r^2/4, and var(y^2) = r^4/16
            sample = y2[off_axis]
            assert abs(sample.mean() - r * r / 4.0) <= 3.0 * r * r / 4.0 / math.sqrt(sample.size)
