"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: brute-force sampling, dense sign scans, series
summation, and adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from pinchpass.numerics import crossing_functions
from pinchpass.params import Scenario, SystemParams


def polar_disk_draw(rng: np.random.Generator, r: float, n: int):
    """Uniform disk positions by a direct polar draw (all radii, then angles)."""
    radius = r * np.sqrt(rng.random(n))
    angle = 2.0 * math.pi * rng.random(n)
    return radius * np.cos(angle), radius * np.sin(angle)


def disk_samples(r: float, n: int, seed: int):
    """Uniform disk samples via an independent rejection-free polar draw."""
    return polar_disk_draw(np.random.default_rng(seed), r, n)


def empirical_cdf(values: np.ndarray, x: float) -> tuple[float, float]:
    """Empirical CDF at x with its binomial standard error."""
    frac = float(np.mean(values <= x))
    se = math.sqrt(max(frac * (1.0 - frac), 1e-12) / values.size)
    return frac, se


def segment_distances(r: float, l: float, n: int, seed: int) -> np.ndarray:
    """Horizontal distances from uniform disk points to the segment [-l, l]."""
    x, y = disk_samples(r, n, seed)
    return np.hypot(x - np.clip(x, -l, l), y)


def alternating_series_li2_minus1(terms: int = 1000) -> float:
    """Li2(-1) by Euler-accelerated summation of sum (-1)^k / k^2."""
    k = np.arange(1, terms + 1, dtype=float)
    partial = np.cumsum((-1.0) ** k / (k * k))
    tail = partial[-200:]
    while tail.size > 1:
        tail = 0.5 * (tail[:-1] + tail[1:])
    return float(tail[0])


def li2_by_quadrature(z: float) -> float:
    """Li2(z) for z < 0 from its integral definition, adaptive quadrature."""
    value, _ = quad(lambda s: math.log1p(s) / s, 0.0, -z, limit=400, epsabs=1e-13,
                    epsrel=1e-13)
    return -value


def outage_by_integration(p: SystemParams, scenario: Scenario) -> float:
    """Outage probability by adaptive integration of the region area."""
    f, _ = crossing_functions(p, scenario)
    l = p.half_length(scenario)
    r = p.r

    def integrand(x: float) -> float:
        rho2 = max(r * r - x * x, 0.0)
        fv = min(max(float(f(x)), 0.0), rho2)
        return math.sqrt(rho2) - math.sqrt(fv)

    cuts = sorted({-r, r} | {v for v in (-l, l) if -r < v < r})
    total = sum(quad(integrand, lo, hi, limit=300)[0]
                for lo, hi in zip(cuts[:-1], cuts[1:]))
    return 2.0 * total / (math.pi * r * r)


def scan_sign_changes(fn, r: float, n: int = 1_000_000) -> list[float]:
    """Approximate roots of fn on [-r, r] from sign changes on a dense grid."""
    x = np.linspace(-r, r, n)
    v = np.asarray(fn(x))
    sign = np.sign(v)
    nonzero = sign != 0
    idx = np.nonzero(np.diff(sign[nonzero]) != 0)[0]
    xs = x[nonzero]
    return [0.5 * (xs[i] + xs[i + 1]) for i in idx]


def scan_crossings(p: SystemParams, scenario: Scenario, n: int = 1_000_000):
    """Dense-grid root counts/locations for the clearance and threshold curves."""
    f, g = crossing_functions(p, scenario)
    return scan_sign_changes(g, p.r, n), scan_sign_changes(f, p.r, n)


def interval_label(x: float, l: float) -> str:
    if x < -l:
        return "[-r,-l]"
    if x <= l:
        return "[-l,l]"
    return "[l,r]"


def random_reference(rng: np.random.Generator, alpha_max: float = 0.05,
                     gamma_lo: float = 85.0, gamma_hi: float = 125.0) -> SystemParams:
    """One random configuration over the standard acceptance ranges."""
    r = rng.uniform(10.0, 40.0)
    return SystemParams.reference(
        gamma_t_db=rng.uniform(gamma_lo, gamma_hi),
        r=r,
        h=rng.uniform(3.0, 15.0),
        alpha=rng.uniform(0.0, alpha_max),
        l=rng.uniform(1e-3, 1.0) * r,
    )
