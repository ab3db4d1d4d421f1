"""Planar geometry of the disk region.

Every outage is an area of the disk summed over chords.  Its chord strips,
and the clipped caps of a lossless outage, go through one primitive:
``seg(R, a, c)``, twice the area under a circle of radius R between the
abscissas a and c.  The positions the Monte-Carlo oracle draws uniformly
on the disk live here too.
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
    """Draw ``size`` positions on the unit disk as (sqrt(u), cos(t), sin(t)).

    Inverse-CDF sampling in polar coordinates: the radius is sqrt(u) and
    the angle t = 2*pi*v, with all radius uniforms u drawn before all angle
    uniforms v, so every position consumes exactly two uniforms.
    ``scale_unit_disk`` turns the draw into positions on any radius.  The
    draw fills ``out`` (three contiguous arrays of length size) if given.
    """
    root_u, cos_t, sin_t = (np.empty(size) for _ in range(3)) if out is None else out
    rng.random(out=root_u)
    np.sqrt(root_u, out=root_u)
    # the angle, turned into its sine in place
    rng.random(out=sin_t)
    sin_t *= 2.0 * math.pi
    np.cos(sin_t, out=cos_t)
    np.sin(sin_t, out=sin_t)
    return root_u, cos_t, sin_t


def scale_unit_disk(unit, radii, out=None):
    """Yield positions (x, y) on the disk of each radius in turn.

    ``unit`` is a ``sample_unit_disk`` draw, and x = (r*sqrt(u))*cos(t),
    y = (r*sqrt(u))*sin(t) for every radius r, so one draw serves several
    radii.  Each radius but the last fills ``out`` (two arrays like the
    draw) if given, else fresh ones; the last is scaled into the draw's own
    arrays, so a single radius needs no memory beyond the draw it spends.
    """
    root_u, cos_t, sin_t = unit
    del unit
    *first, last = radii
    for r in first:
        x, y = np.empty((2, *root_u.shape)) if out is None else out
        np.multiply(root_u, r, out=x)
        x *= cos_t
        np.multiply(root_u, r, out=y)
        y *= sin_t
        yield x, y
    root_u *= last
    cos_t *= root_u
    sin_t *= root_u
    del root_u
    yield cos_t, sin_t


def sample_uniform_disk(rng: np.random.Generator, r: float, size: int | None = None):
    """Draw positions uniformly on the disk of radius r.

    A ``sample_unit_disk`` draw scaled to radius r, so every draw consumes
    exactly two uniforms.  Returns a pair of floats for ``size=None``, else
    a pair of ndarrays of length size.

    Parameters
    ----------
    rng : numpy.random.Generator
        Seeded generator; the caller owns the stream.
    r : float
        Disk radius, m.
    size : int, optional
        Number of samples.
    """
    n = 1 if size is None else int(size)
    x, y = next(scale_unit_disk(sample_unit_disk(rng, n), [r]))
    if size is None:
        return float(x[0]), float(y[0])
    return x, y
