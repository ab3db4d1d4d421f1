"""Planar geometry of the disk region.

Every outage is an area of the disk summed over chords.  Its chord strips,
and the clipped caps of a lossless outage, go through one primitive:
``seg(R, a, c)``, twice the area under a circle of radius R between the
abscissas a and c.  The positions the Monte-Carlo oracle draws uniformly
on the disk live here too, as (sqrt(u), cos(t), t) on the unit disk: the
oracle scales them without a sine, as the SNR reads y only as y^2, which is
(rho - x)(rho + x) at distance rho from the center, the same difference of
squares seg takes.  ``sample_uniform_disk``, the same draw scaled with a
sine, exists for perfbench's draw probe.
"""

from __future__ import annotations

import math

import numpy as np


def _sqrt_clamped(value: float, scale: float) -> float:
    # roots sit exactly on the domain edge in exact arithmetic
    if value < 0.0:
        if value < -1e-12 * scale:
            raise ArithmeticError(f"square-root argument {value!r} beyond clamp window")
        return 0.0
    return math.sqrt(value)


def seg(R: float, a: float, c: float) -> float:
    """Twice the area under the circle of radius R between a and c.

    The chord-strip antiderivative, 2 * integral of sqrt(R^2 - x^2) over
    [a, c].  The half-height is sqrt((R - x)(R + x)), not sqrt(R^2 - x^2):
    near x = +-R one factor is exact, so it keeps its relative accuracy at
    the edge; the angle is atan2(x, rho), not asin(x / R), whose slope
    blows up there.  An abscissa beyond +-R past rounding raises
    ArithmeticError.
    """
    rho_a = _sqrt_clamped((R - a) * (R + a), R * R)
    rho_c = _sqrt_clamped((R - c) * (R + c), R * R)
    return R * R * (math.atan2(c, rho_c) - math.atan2(a, rho_a)) + c * rho_c - a * rho_a


def sample_unit_disk(rng: np.random.Generator, size: int, out=None):
    """Draw ``size`` positions on the unit disk as (sqrt(u), cos(t), t).

    Inverse-CDF sampling in polar coordinates: the radius is sqrt(u) and
    the angle t = 2*pi*v, with all radius uniforms u drawn before all angle
    uniforms v, so every position consumes exactly two uniforms.  The
    Monte-Carlo chunk scales it to x and y^2 on each radius without a sine,
    with the angle row as scratch once cos(t) is written.  The draw fills
    ``out`` (three contiguous arrays of length size) if given.
    """
    root_u, cos_t, angle = (np.empty(size) for _ in range(3)) if out is None else out
    rng.random(out=root_u)
    np.sqrt(root_u, out=root_u)
    rng.random(out=angle)
    angle *= 2.0 * math.pi
    np.cos(angle, out=cos_t)
    return root_u, cos_t, angle


def sample_uniform_disk(rng: np.random.Generator, r: float, size: int):
    """Draw ``size`` positions uniformly on the disk of radius r as (x, y).

    A ``sample_unit_disk`` draw scaled to radius r with its own sine,
    x = rho*cos(t) and y = rho*sin(t) for rho = r*sqrt(u).  Its one caller
    is ``perfbench/layers.py``'s draw probe; ROADMAP item 21 retires it.
    """
    rho, x, y = sample_unit_disk(rng, size)
    rho *= r
    x *= rho
    np.sin(y, out=y)
    y *= rho
    return x, y
