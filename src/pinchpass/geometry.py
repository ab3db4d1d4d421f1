"""Planar geometry of the disk region.

Distance distributions for a device dropped uniformly on the disk: the
transverse offset ``|y|`` from the waveguide axis (full coverage) and the
horizontal distance ``D`` to the nearest point of a centered segment of
half-length ``l`` (partial coverage).  The sub-level set ``{D <= x}`` is a
stadium (a 2l x 2x rectangle capped by two half-disks of radius x), so the
CDF of D is the area of stadium-intersect-disk over the disk area.
"""

from __future__ import annotations

import math

import numpy as np

_CLAMP_TOL = 1e-12


def _clamped_unit(u: float) -> float:
    # arccos/arcsin arguments land exactly on the domain edge at branch
    # boundaries; clamp small overshoot, reject anything larger.
    if -1.0 <= u <= 1.0:
        return u
    if abs(u) <= 1.0 + 1e-9:
        return math.copysign(1.0, u)
    raise ValueError(f"inverse-trig argument {u!r} outside [-1, 1]")


def cdf_abs_y(x: float, r: float) -> float:
    """CDF of the transverse offset |y| for a uniform point on a disk.

    P(|y| <= x) is the area of the band ``|y| <= x`` clipped to the disk of
    radius r, over the disk area.  Total function: 0 below 0, 1 above r.
    """
    if x <= 0.0:
        return 0.0
    if x >= r:
        return 1.0
    return 2.0 * (x * math.sqrt(r * r - x * x) + r * r * math.asin(x / r)) / (math.pi * r * r)


def _lens_area(r: float, x: float, d: float) -> float:
    # Intersection area of disk(radius r, center O) and disk(radius x,
    # center at distance d), on the partial-overlap branch.
    if r - x - d >= -1e-9 * r:
        # internal tangency: the acos arguments sit at the domain edge where
        # the formula loses half its digits; the true deficit from the full
        # cap disk is O(gap^{3/2}) and negligible inside this window
        return math.pi * x * x
    u1 = _clamped_unit((d * d + r * r - x * x) / (2.0 * d * r))
    u2 = _clamped_unit((d * d + x * x - r * r) / (2.0 * d * x))
    s2 = (-d + r + x) * (d + r - x) * (d - r + x) * (d + r + x)
    if s2 < 0.0:
        if s2 < -_CLAMP_TOL * (r * r * x * x):
            raise ValueError("circle pair does not partially overlap")
        s2 = 0.0
    return r * r * math.acos(u1) + x * x * math.acos(u2) - 0.5 * math.sqrt(s2)


def theta(x: float, r: float, l: float) -> float:
    """Half the area of {distance to segment <= x} inside the disk.

    Valid on the middle branch r - l <= x <= sqrt(r^2 - l^2), where the
    rectangle part of the stadium is fully inside the disk and only the two
    end caps are clipped: the half-area is

        2*l*x - pi*x^2/2 + lens(r, x, l)

    with ``lens`` the intersection area of the region disk and one cap disk.
    """
    if not 0 < l < r:
        raise ValueError(f"theta requires 0 < l < r, got l={l!r}, r={r!r}")
    lo, hi = r - l, math.sqrt(r * r - l * l)
    if x < lo - _CLAMP_TOL * r or x > hi + _CLAMP_TOL * r:
        raise ValueError(f"theta argument {x!r} outside [{lo!r}, {hi!r}]")
    x = min(max(x, lo), hi)
    return 2.0 * l * x - 0.5 * math.pi * x * x + _lens_area(r, x, l)


def cdf_horizontal_distance(x: float, r: float, l: float) -> float:
    """CDF of the horizontal distance D to the centered antenna segment.

    Piecewise in x (half-open branch selection keeps the boundaries
    deterministic; the branches agree there):

      [0, r-l)              stadium fully inside: (4*x*l + pi*x^2)/(pi*r^2)
      [r-l, sqrt(r^2-l^2))  caps clipped: 2*theta(x)/(pi*r^2)
      [sqrt(r^2-l^2), r]    band formula, same as cdf_abs_y

    Degenerates to ``cdf_abs_y`` when l == r.
    """
    if x <= 0.0:
        return 0.0
    if x >= r:
        return 1.0
    if x < r - l:
        return (4.0 * x * l + math.pi * x * x) / (math.pi * r * r)
    if x * x < r * r - l * l:
        return 2.0 * theta(x, r, l) / (math.pi * r * r)
    return cdf_abs_y(x, r)


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
