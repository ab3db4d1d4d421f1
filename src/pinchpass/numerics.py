"""Numerical toolbox behind the closed forms; it knows no model.

Real dilogarithm on the non-positive axis, the special function of the
paper's lossy full-coverage rate expression (``scipy.special.spence``,
imported on first use, with a short Gauss-Legendre rule for differences of
nearly equal arguments), Gauss-Chebyshev (first kind) quadrature and
bracketed root finding.  Importing this module loads no scipy.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = sys.float_info.epsilon

# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------


def dilog(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 0.

    Evaluated as ``scipy.special.spence(1 - z)``: relative error ~1e-15 for
    z <= -1 and absolute error ~1e-15 on (-1, 0], where the rounding of
    1 - z costs small |z| relative digits.
    """
    if z > 0.0:
        raise ValueError(f"dilog is defined here for z <= 0 only, got {z!r}")
    if z == 0.0:
        return 0.0
    from scipy.special import spence  # on first use: its import takes ~0.35 s
    return float(spence(1.0 - z))


@functools.cache
def _gauss_legendre_24() -> tuple[list[float], ...]:  # on first use, as spence
    return tuple(a.tolist() for a in np.polynomial.legendre.leggauss(24))


def dilog_diff(z_hi: float, z_lo: float) -> float:
    """Li2(z_hi) - Li2(z_lo) for non-positive arguments, cancellation-safe.

    Nearly coincident arguments integrate Li2'(t) = -ln(1 - t)/t over the
    short interval (24-point Gauss-Legendre) instead of subtracting two
    large values.
    """
    if z_hi > 0.0 or z_lo > 0.0:
        raise ValueError("dilog_diff is defined for non-positive arguments")
    gap = z_hi - z_lo
    if abs(gap) > 0.05 * (1.0 + min(abs(z_hi), abs(z_lo))):
        from scipy.special import spence  # as in dilog: Li2(z) = spence(1 - z)
        return float(spence(1.0 - z_hi) - spence(1.0 - z_lo))
    mid = 0.5 * (z_hi + z_lo)
    half = 0.5 * gap
    total = 0.0
    for node, weight in zip(*_gauss_legendre_24()):
        t = mid + half * node
        total += weight * (-math.log1p(-t) / t if t != 0.0 else 1.0)
    return float(half * total)


# ---------------------------------------------------------------------------
# Gauss-Chebyshev quadrature (first kind)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChebyshevRule:
    """Fixed Gauss-Chebyshev rule: nodes cos((2k-1)pi/2n), weight pi/n.

    ``node_sines`` holds sin((2k-1)pi/2n) = sqrt(1 - t_k^2) evaluated
    without cancellation.
    """

    order: int
    nodes: np.ndarray
    node_sines: np.ndarray
    weight: float

    @classmethod
    @functools.lru_cache(maxsize=32)
    def of_order(cls, n: int) -> "ChebyshevRule":
        """The rule of order n, built once per order; its arrays are read-only."""
        if n < 1:
            raise ValueError(f"node count must be positive, got {n!r}")
        angles = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
        nodes, node_sines = np.cos(angles), np.sin(angles)
        nodes.flags.writeable = False
        node_sines.flags.writeable = False
        return cls(order=n, nodes=nodes, node_sines=node_sines, weight=math.pi / n)

    def integrate(self, f: Callable[[np.ndarray], np.ndarray],
                  a: float = -1.0, b: float = 1.0) -> float:
        """Plain integral of f over [a, b] via the affine node map."""
        x = 0.5 * (b - a) * self.nodes + 0.5 * (a + b)
        return 0.5 * (b - a) * self.weight * float(np.sum(self.node_sines * f(x)))


# ---------------------------------------------------------------------------
# bracketed root finding
# ---------------------------------------------------------------------------


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        tol: float | None = None) -> float:
    """Root of f on [lo, hi] with f(lo), f(hi) of opposite sign.

    Brent's method: inverse-quadratic/secant steps with a bisection
    safeguard, so convergence is guaranteed for any continuous f.  The
    default tolerance is 1e-12*(hi - lo); pass ``tol=0.0`` to iterate to
    machine precision.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo!r}, {hi!r}]")
    if tol is None:
        tol = 1e-12 * (hi - lo)
    sa, sb = lo, hi
    fa, fb = f(sa), f(sb)
    if fa == 0.0:
        return sa
    if fb == 0.0:
        return sb
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("invalid bracket: f(lo) and f(hi) have the same sign")
    c, fc = sa, fa
    e = d = sb - sa
    while True:
        if abs(fc) < abs(fb):
            sa, sb, c = sb, c, sb
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(sb) + 0.5 * tol
        m = 0.5 * (c - sb)
        if abs(m) <= tol1 or fb == 0.0:
            return sb
        if abs(e) < tol1 or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if sa == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                rq = fb / fc
                p = s * (2.0 * m * q * (q - rq) - (sb - sa) * (rq - 1.0))
                q = (q - 1.0) * (rq - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        sa, fa = sb, fb
        if abs(d) > tol1:
            sb += d
        elif m > 0.0:
            sb += tol1
        else:
            sb -= tol1
        fb = f(sb)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = sa, fa
            e = d = sb - sa
