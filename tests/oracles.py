"""Independent oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: brute-force sampling, a randomly shifted lattice
rule, dense sign scans, series summation, and adaptive quadrature (double
precision and 30-digit).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from pinchpass.params import Scenario, SystemParams, derive_constants


def params_with_a(a_target: float, base=None) -> SystemParams:
    """Choose p_t so the lossless crossing bound A equals a_target (to rounding)."""
    p = base or SystemParams.reference()
    eta = derive_constants(p).eta
    return p.with_(p_t=p.sigma2 * p.gamma_th * (a_target + p.h ** 2) / eta)


def polar_disk_draw(rng: np.random.Generator, r: float, n: int):
    """Uniform disk positions by a direct polar draw (all radii, then angles)."""
    radius = r * np.sqrt(rng.random(n))
    angle = 2.0 * math.pi * rng.random(n)
    return radius * np.cos(angle), radius * np.sin(angle)


def polar_disk_draw_squared(rng: np.random.Generator, r: float, n: int):
    """The same draw as ``polar_disk_draw``, as (x, y^2) without a sine.

    y^2 is the difference of squares (rho - x)(rho + x) of the radius rho
    and the abscissa x = rho*cos(angle).
    """
    radius = r * np.sqrt(rng.random(n))
    x = radius * np.cos(2.0 * math.pi * rng.random(n))
    return x, (radius - x) * (radius + x)


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


def _li2_power_series(z: np.ndarray) -> np.ndarray:
    # sum z^k / k^2 for |z| <= 0.5
    total = np.zeros_like(z)
    zk = np.ones_like(z)
    for k in range(1, 120):
        zk = zk * z
        term = zk / (k * k)
        total = total + term
        if np.max(np.abs(term), initial=0.0) < 1e-18:
            break
    return total


def li2_series(z) -> np.ndarray:
    """Li2(z) for z <= 0: power series on [-0.5, 0], the Landen transform on
    [-1, -0.5), and the inversion identity below -1."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    near = z >= -0.5
    mid = (z >= -1.0) & ~near
    far = z < -1.0
    out[near] = _li2_power_series(z[near])
    zz = z[mid]
    out[mid] = -0.5 * np.log1p(-zz) ** 2 - _li2_power_series(zz / (zz - 1.0))
    if far.any():
        zz = z[far]
        out[far] = -math.pi ** 2 / 6.0 - 0.5 * np.log(-zz) ** 2 - li2_series(1.0 / zz)
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def li2_diff(z_hi, z_lo) -> np.ndarray:
    """Li2(z_hi) - Li2(z_lo) for non-positive arguments, cancellation-safe.

    Built on li2_series; near-coincident arguments integrate
    Li2'(t) = -ln(1 - t)/t over their gap with 24-point Gauss-Legendre
    instead of subtracting two large values.
    """
    z_hi, z_lo = np.asarray(z_hi, dtype=float), np.asarray(z_lo, dtype=float)
    gap = z_hi - z_lo
    close = np.abs(gap) <= 0.05 * (1.0 + np.minimum(np.abs(z_hi), np.abs(z_lo)))
    diff = li2_series(z_hi) - li2_series(z_lo)
    t = 0.5 * (z_hi + z_lo)[None, close] + 0.5 * gap[None, close] * _GL_NODES[:, None]
    diff[close] = 0.5 * gap[close] * (_GL_WEIGHTS @ (-np.log1p(-t) / t))
    return diff


def rate_fwl_series(p: SystemParams, nodes: int) -> float:
    """The paper's FWL rate: a Chebyshev sum over y of dilog differences.

    The differences come from li2_diff.  The library evaluates the same
    rate with the chord quadrature over x, so this is its paper-fidelity
    oracle.
    """
    d = derive_constants(p)
    k = np.arange(1, nodes + 1)
    angles = (2.0 * k - 1.0) * math.pi / (2.0 * nodes)
    y, rho = p.r * np.cos(angles), p.r * np.sin(angles)
    gain = d.eta * p.p_t / (p.sigma2 * (y * y + p.h * p.h))
    diff = li2_diff(-gain * np.exp(-p.alpha * (rho + p.r)),
                    -gain * np.exp(p.alpha * (rho - p.r)))
    total = float(np.sum(np.sin(angles) * diff))
    return total / (p.alpha * p.r * nodes * math.log(2.0))


def rate_chord_full_rule(p: SystemParams, l: float, t: np.ndarray, w: np.ndarray) -> float:
    """The lossy chord-quadrature rate (PWL; FWL at l = r) on nodes t with
    weights w, every node of the covered span and of each outer side
    evaluated on its own, with no pairing of mirrored nodes or sides."""
    r, h2, a, e = p.r, p.h ** 2, p.alpha, derive_constants(p).eta * p.p_t / p.sigma2

    def chords(x, base2, gain):
        rho2 = np.maximum(r * r - x * x, 0.0)
        rho, lift, base = np.sqrt(rho2), np.sqrt(base2 + gain), np.sqrt(base2)
        return (rho * np.log1p(gain / (rho2 + base2)) + 2.0 * lift * np.arctan(rho / lift)
                - 2.0 * base * np.arctan(rho / base)) @ w

    far, near = 0.5 * (r - l) * t + 0.5 * (r + l), 0.5 * (r - l) * t - 0.5 * (r + l)
    total = (2.0 * l * chords(l * t, h2, e * np.exp(-a * l * (1.0 + t)))
             + (r - l) * chords(far, h2 + (far - l) ** 2, e * math.exp(-2.0 * a * l))
             + (r - l) * chords(near, h2 + (near + l) ** 2, e))
    return float(total) / (len(t) * r * r * math.log(2.0))


def rate_chord_lossless_full_rule(p: SystemParams, l: float, t: np.ndarray,
                                  w: np.ndarray) -> float:
    """The lossless chord-quadrature rate (PWNL at any l <= r) on nodes t
    with weights w: the even covered span on its nodes x = l t/2 + l/2 over
    [0, l], and every node of each outer side evaluated on its own, with no
    merging of the two sides or of the spans."""
    r, h2, e = p.r, p.h ** 2, derive_constants(p).eta * p.p_t / p.sigma2

    def chords(x, base2):
        rho2 = np.maximum(r * r - x * x, 0.0)
        rho, lift, base = np.sqrt(rho2), np.sqrt(base2 + e), np.sqrt(base2)
        return (rho * np.log1p(e / (rho2 + base2)) + 2.0 * lift * np.arctan(rho / lift)
                - 2.0 * base * np.arctan(rho / base)) @ w

    far, near = 0.5 * (r - l) * t + 0.5 * (r + l), 0.5 * (r - l) * t - 0.5 * (r + l)
    total = (2.0 * l * chords(0.5 * l * t + 0.5 * l, h2)
             + (r - l) * chords(far, h2 + (far - l) ** 2)
             + (r - l) * chords(near, h2 + (near + l) ** 2))
    return float(total) / (len(t) * r * r * math.log(2.0))


def threshold_curves(p: SystemParams, scenario: Scenario):
    """Vectorized threshold curve f and clearance g = r^2 - x^2 - f of a lossy
    scenario, from the SNR definition.

    The antenna sits at x_pa = clip(x, -l, l), fed from -l, so a device at
    (x, y) is in outage when y^2 > f(x) = C exp(-alpha (x_pa + l)) - h^2
    - (x - x_pa)^2; the chord at x holds outage points iff g(x) > 0.
    """
    l = p.half_length(scenario)
    C = derive_constants(p).C

    def f(x):
        x = np.asarray(x, dtype=float)
        x_pa = np.clip(x, -l, l)
        return C * np.exp(-p.alpha * (x_pa + l)) - p.h ** 2 - (x - x_pa) ** 2

    def g(x):
        x = np.asarray(x, dtype=float)
        return p.r ** 2 - x * x - f(x)

    return f, g


def outage_by_integration(p: SystemParams, scenario: Scenario) -> float:
    """Outage probability by adaptive integration of the region area."""
    f, _ = threshold_curves(p, scenario)
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
    f, g = threshold_curves(p, scenario)
    return scan_sign_changes(g, p.r, n), scan_sign_changes(f, p.r, n)


def outage_by_mpmath(p: SystemParams, scenario: Scenario, dps: int = 30,
                     n_scan: int = 20_000) -> float:
    """Outage probability by tanh-sinh quadrature at ``dps`` digits.

    The integrand rho - sqrt(clip(f, 0, rho^2)) is evaluated in mpmath from
    the SNR definition and split at every kink, so each piece is smooth
    inside: +-l, the zeros of f, the roots of g on the outer segments (where
    g is linear) and, at alpha = 0, on the middle segment, all in closed
    form.  Only a middle-segment root of g at alpha > 0 has none; those are
    found by a sign scan of ``n_scan`` points, each refined by
    ``mpmath.findroot`` in its scan bracket.
    """
    l = p.half_length(scenario)
    with mpmath.workdps(dps):
        r, h, alpha, C = (mpmath.mpf(v) for v in (p.r, p.h, p.alpha, derive_constants(p).C))
        l_mp = mpmath.mpf(l)
        k2c = C * mpmath.exp(-2 * alpha * l_mp)     # omega at +l

        def f(x):
            x_pa = min(max(x, -l_mp), l_mp)
            return C * mpmath.exp(-alpha * (x_pa + l_mp)) - h * h - (x - x_pa) ** 2

        def g(x):
            return r * r - x * x - f(x)

        def integrand(x):
            rho2 = max(r * r - x * x, 0)
            return mpmath.sqrt(rho2) - mpmath.sqrt(min(max(f(x), 0), rho2))

        def real_sqrt(v):
            return [mpmath.sqrt(v)] if v >= 0 else []

        base = r * r + l_mp * l_mp + h * h
        kinks = [-l_mp, l_mp, (C - base) / (2 * l_mp), (base - k2c) / (2 * l_mp)]
        kinks += [-l_mp - s for s in real_sqrt(C - h * h)]
        kinks += [l_mp + s for s in real_sqrt(k2c - h * h)]
        if alpha > 0:
            kinks.append(-l_mp + mpmath.log(C / (h * h)) / alpha)
            step = 2.0 * p.r / (n_scan - 1)
            for x in scan_crossings(p, scenario, n_scan)[0]:
                kinks.append(mpmath.findroot(g, (x - step, x + step), solver="anderson"))
        else:
            kinks += [v for s in real_sqrt(r * r + h * h - C) for v in (-s, s)]
        cuts = sorted({-r, r} | {x for x in kinks if -r < x < r})
        total = mpmath.quad(integrand, cuts)
        return float(2 * total / (mpmath.pi * r * r))


def side_label(x: float, l: float) -> str:
    """The guide segment holding x, as a lossy case id names it."""
    if x < -l:
        return "left"
    if x <= l:
        return "mid"
    return "right"


def case_sides(case_id: str) -> list[str]:
    """The sides a lossy case id names for its two roots, in x order."""
    return case_id.split("-")[1:]


def fibonacci_lattice(m: int) -> np.ndarray:
    """The N = F_m points k*(1, F_{m-1})/N mod 1, k < N, of the Fibonacci
    lattice rule, as an (N, 2) array."""
    f_prev, n = 1, 1                # F_1, F_2
    for _ in range(m - 2):
        f_prev, n = n, f_prev + n
    k = np.arange(n, dtype=np.int64)
    return np.column_stack([k, k * f_prev % n]) / n


def lattice_disk_mean(fn, r: float, m: int = 24, shifts: int = 16, seed: int = 0):
    """(mean, standard error) of fn over the disk of radius r, by the
    Fibonacci lattice of F_m points under ``shifts`` independent random
    shifts (Cranley and Patterson, 1976) and the tent transform
    (Hickernell, 2002).

    ``fn(x, y)`` takes arrays of positions and returns values along the
    last axis, so one call can give several integrands; fn must be even in
    y.  The unit square maps to the half disk y >= 0 by
    x = r*sin(pi*(u - 1/2)), y = v*sqrt(r^2 - x^2), whose area element
    weights each point by 1 - cos(2*pi*u); that weight is smooth and
    periodic, so no endpoint singularity slows the rule.  Each shift gives
    an unbiased estimate, and the standard error is the spread of the
    shift means over sqrt(shifts).
    """
    lattice = fibonacci_lattice(m)
    means = []
    for shift in np.random.default_rng(seed).random((shifts, 2)):
        u, v = (1.0 - np.abs(2.0 * ((lattice + shift) % 1.0) - 1.0)).T
        x = r * np.sin(math.pi * (u - 0.5))
        weight = 1.0 - np.cos(2.0 * math.pi * u)
        means.append(np.asarray(fn(x, v * np.sqrt(r * r - x * x))) @ weight / u.size)
    means = np.array(means)
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(shifts)


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


def extreme_reference(rng: np.random.Generator) -> SystemParams:
    """One random configuration over the extreme set: h 1e-3-15 m, r 10-1e4 m,
    alpha 1e-4-50 /m, l 1e-6 r-r (all log-uniform), gamma_t 85-135 dB."""
    r = 10.0 ** rng.uniform(1.0, 4.0)
    return SystemParams.reference(
        gamma_t_db=rng.uniform(85.0, 135.0),
        r=r,
        h=10.0 ** rng.uniform(-3.0, math.log10(15.0)),
        alpha=10.0 ** rng.uniform(-4.0, math.log10(50.0)),
        l=10.0 ** rng.uniform(-6.0, 0.0) * r,
    )
