import math

import numpy as np
import pytest
from scipy.stats import chi2

from pinchpass.geometry import (
    cdf_abs_y,
    cdf_horizontal_distance,
    chord_half_height,
    clamp_pa_position,
    sample_uniform_disk,
    sample_unit_disk,
    scale_unit_disk,
    theta,
)
from oracles import disk_samples, empirical_cdf, polar_disk_draw, segment_distances


def test_chord_half_height_basics():
    assert chord_half_height(0.0, 5.0) == 5.0
    assert chord_half_height(5.0, 5.0) == 0.0
    assert chord_half_height(3.0, 5.0) == pytest.approx(4.0, rel=1e-15)
    assert chord_half_height(5.0 * (1 + 1e-13), 5.0) == 0.0
    with pytest.raises(ValueError):
        chord_half_height(5.1, 5.0)


def test_cdf_abs_y_edges():
    assert cdf_abs_y(0.0, 25.0) == 0.0
    assert cdf_abs_y(-3.0, 25.0) == 0.0
    assert cdf_abs_y(25.0, 25.0) == 1.0
    assert cdf_abs_y(30.0, 25.0) == 1.0


def test_cdf_abs_y_against_samples():
    r = 25.0
    _, y = disk_samples(r, 10_000_000, seed=101)
    frac, se = empirical_cdf(np.abs(y), r / 2)
    assert abs(cdf_abs_y(r / 2, r) - frac) <= 3 * se


def test_theta_continuous_at_both_branch_ends():
    for r, l in ((25.0, 10.0), (25.0, 12.5), (17.0, 4.0), (33.0, 28.0)):
        denom = math.pi * r * r
        x_lo = r - l
        lower = (4 * x_lo * l + math.pi * x_lo * x_lo) / denom
        assert 2 * theta(x_lo, r, l) / denom == pytest.approx(lower, abs=1e-9)
        x_hi = math.sqrt(r * r - l * l)
        assert 2 * theta(x_hi, r, l) / denom == pytest.approx(cdf_abs_y(x_hi, r), abs=1e-9)


def test_theta_matches_area_sampling():
    r, l, x = 25.0, 12.5, 15.0
    d = segment_distances(r, l, 10_000_000, seed=202)
    frac, se = empirical_cdf(d, x)
    assert abs(2 * theta(x, r, l) / (math.pi * r * r) - frac) <= 3 * se


def test_theta_domain_error():
    with pytest.raises(ValueError):
        theta(5.0, 25.0, 12.5)   # below r - l
    with pytest.raises(ValueError):
        theta(24.0, 25.0, 12.5)  # above sqrt(r^2 - l^2)


def test_cdf_horizontal_distance_edges_and_degenerate():
    assert cdf_horizontal_distance(0.0, 25.0, 10.0) == 0.0
    assert cdf_horizontal_distance(25.0, 25.0, 10.0) == 1.0
    for x in np.linspace(0.0, 25.0, 101):
        full = cdf_horizontal_distance(float(x), 25.0, 25.0)
        assert full == pytest.approx(cdf_abs_y(float(x), 25.0), abs=1e-9)


def test_cdf_horizontal_distance_against_samples():
    r, l = 25.0, 10.0
    d = segment_distances(r, l, 10_000_000, seed=303)
    for x in (5.0, 14.0, 20.0, 24.0):
        frac, se = empirical_cdf(d, x)
        assert abs(cdf_horizontal_distance(x, r, l) - frac) <= 3 * se


def test_cdf_monotone_and_branch_continuity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = rng.uniform(5.0, 40.0)
        l = rng.uniform(0.05, 0.999) * r
        grid = np.linspace(0.0, r, 10_000)
        vals = [cdf_horizontal_distance(float(x), r, l) for x in grid]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-12)
        for x in (r - l, math.sqrt(r * r - l * l), r):
            below = cdf_horizontal_distance(x * (1 - 1e-12), r, l)
            above = cdf_horizontal_distance(x * (1 + 1e-12), r, l)
            assert abs(above - below) <= 1e-9


def test_clamp_pa_position():
    assert clamp_pa_position(-30.0, 10.0) == -10.0
    assert clamp_pa_position(3.0, 10.0) == 3.0
    assert clamp_pa_position(10.0, 10.0) == 10.0
    assert clamp_pa_position(17.0, 10.0) == 10.0


def test_clamp_minimizes_distance_against_grid_search():
    h, l = 10.0, 12.5
    rng = np.random.default_rng(5)
    candidates = np.linspace(-l, l, 1000)
    for _ in range(50):
        x_u = rng.uniform(-40.0, 40.0)
        y_u = rng.uniform(-25.0, 25.0)
        best = clamp_pa_position(x_u, l)
        d_best = math.hypot(best - x_u, y_u) ** 2 + h * h
        d_grid = (candidates - x_u) ** 2 + y_u * y_u + h * h
        assert d_best <= float(d_grid.min()) + 1e-12


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


def test_unit_disk_scaled_per_radius_matches_direct_draws():
    radii = [25.0, 15.0, 40.0, 0.37]
    for n in (1, 4_464, 65_536):
        positions = scale_unit_disk(sample_unit_disk(np.random.default_rng(n), n), radii)
        for r, (x, y) in zip(radii, positions, strict=True):
            ref = polar_disk_draw(np.random.default_rng(n), r, n)
            assert np.array_equal(x, ref[0]) and np.array_equal(y, ref[1])
            direct = sample_uniform_disk(np.random.default_rng(n), r, n)
            assert np.array_equal(direct[0], ref[0]) and np.array_equal(direct[1], ref[1])
