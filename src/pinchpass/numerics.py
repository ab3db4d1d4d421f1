"""Special functions and solvers behind the closed forms.

Real dilogarithm on the non-positive axis, Gauss-Chebyshev (first kind)
quadrature, bracketed root finding, and the classifier that turns the
threshold/chord crossing structure of the lossy scenarios into a dispatch
decision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import Scenario, SystemParams, derive_constants

_EPS = sys.float_info.epsilon

# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------


def _dilog_series(z: np.ndarray) -> np.ndarray:
    # power series sum z^k / k^2; callers guarantee |z| <= 0.5
    total = np.zeros_like(z)
    zk = np.ones_like(z)
    for k in range(1, 120):
        zk = zk * z
        term = zk / (k * k)
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total


def _dilog_array(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    near = z >= -0.5
    mid = (z >= -1.0) & ~near
    far = z < -1.0
    if near.any():
        out[near] = _dilog_series(z[near])
    if mid.any():
        zz = z[mid]
        # Landen transform maps [-1, -0.5] onto (1/3, 1/2]
        out[mid] = -0.5 * np.log1p(-zz) ** 2 - _dilog_series(zz / (zz - 1.0))
    if far.any():
        zz = z[far]
        inv = 1.0 / zz
        out[far] = -math.pi ** 2 / 6.0 - 0.5 * np.log(-zz) ** 2 - _dilog_array(inv)
    return out


def dilog(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 0.

    Power series inside |z| <= 0.5; the Landen transform covers
    [-1, -0.5] and the inversion identity maps z < -1 back into the
    fast-converging region.  Absolute accuracy ~1e-15.
    """
    if z > 0.0:
        raise ValueError(f"dilog is defined here for z <= 0 only, got {z!r}")
    if z == 0.0:
        return 0.0
    return float(_dilog_array(np.array([z]))[0])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _dilog_diff_array(z_hi: np.ndarray, z_lo: np.ndarray) -> np.ndarray:
    # Li2(z_hi) - Li2(z_lo), stable when the arguments nearly coincide:
    # integrate Li2' = -ln(1-t)/t over the short interval instead of
    # subtracting two large values.
    z_hi = np.asarray(z_hi, dtype=float)
    z_lo = np.asarray(z_lo, dtype=float)
    gap = z_hi - z_lo
    close = np.abs(gap) <= 0.05 * (1.0 + np.minimum(np.abs(z_hi), np.abs(z_lo)))
    out = np.empty_like(gap)
    if (~close).any():
        out[~close] = _dilog_array(z_hi[~close]) - _dilog_array(z_lo[~close])
    if close.any():
        mid = 0.5 * (z_hi[close] + z_lo[close])
        half = 0.5 * gap[close]
        t = mid[None, :] + half[None, :] * _GL_NODES[:, None]
        vals = np.where(t == 0.0, 1.0, -np.log1p(-t) / np.where(t == 0.0, 1.0, t))
        out[close] = half * np.einsum("i,ij->j", _GL_WEIGHTS, vals)
    return out


def dilog_diff(z_hi: float, z_lo: float) -> float:
    """Li2(z_hi) - Li2(z_lo) for non-positive arguments, cancellation-safe."""
    if z_hi > 0.0 or z_lo > 0.0:
        raise ValueError("dilog_diff is defined for non-positive arguments")
    return float(_dilog_diff_array(np.array([z_hi]), np.array([z_lo]))[0])


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
    def of_order(cls, n: int) -> "ChebyshevRule":
        if n < 1:
            raise ValueError(f"node count must be positive, got {n!r}")
        angles = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
        return cls(order=n, nodes=np.cos(angles), node_sines=np.sin(angles),
                   weight=math.pi / n)

    def weighted_sum(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """(pi/n) * sum f(t_k), i.e. the integral of f(t)/sqrt(1-t^2)."""
        return self.weight * float(np.sum(f(self.nodes)))

    def integrate(self, f: Callable[[np.ndarray], np.ndarray],
                  a: float = -1.0, b: float = 1.0) -> float:
        """Plain integral of f over [a, b] via the affine node map."""
        x = 0.5 * (b - a) * self.nodes + 0.5 * (a + b)
        return 0.5 * (b - a) * self.weight * float(np.sum(self.node_sines * f(x)))


def gauss_chebyshev(rule: ChebyshevRule, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Raw weighted node sum of the rule (see :meth:`ChebyshevRule.weighted_sum`)."""
    return rule.weighted_sum(f)


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


# ---------------------------------------------------------------------------
# crossing classifier for the lossy scenarios
# ---------------------------------------------------------------------------

INTERVAL_LEFT = "[-r,-l]"
INTERVAL_MID = "[-l,l]"
INTERVAL_RIGHT = "[l,r]"

_SHORT = {INTERVAL_LEFT: "left", INTERVAL_MID: "mid", INTERVAL_RIGHT: "right"}

CASE_ALL_OUTAGE = "all-outage"
CASE_NO_OUTAGE = "no-outage"


@dataclass(frozen=True)
class LabeledRoot:
    value: float
    interval: str


@dataclass(frozen=True)
class RootReport:
    """Root structure of the outage boundary for one lossy configuration.

    ``g_roots`` are the crossings of the threshold curve with the squared
    chord height (the edges of the outage x-range); ``f_roots`` are the
    zeros of the threshold curve itself (beyond which whole chords are in
    outage).  ``case_id`` names the dispatched closed form; ``degenerate``
    carries the shortcut outage value 0.0/1.0 when no roots are needed.
    """

    g_roots: tuple[LabeledRoot, ...]
    f_roots: tuple[LabeledRoot, ...]
    case_id: str
    degenerate: float | None = None


def _interval_of(x: float, l: float) -> str:
    if x < -l:
        return INTERVAL_LEFT
    if x <= l:
        return INTERVAL_MID
    return INTERVAL_RIGHT


def crossing_functions(p: SystemParams, scenario: Scenario):
    """Vectorized threshold curve f and clearance g = r^2 - x^2 - f.

    A device at abscissa x is in outage when its squared transverse offset
    exceeds f(x); the chord at x contains outage points iff g(x) > 0.
    """
    if not scenario.lossy:
        raise ValueError("crossing analysis applies to the lossy scenarios only")
    l = p.half_length(scenario)
    r, alpha = p.r, p.alpha
    h2 = p.h * p.h
    C = derive_constants(p).C

    def f(x):
        x = np.asarray(x, dtype=float)
        # clamp: left of -l the middle branch is discarded below, and its
        # exponent could overflow there
        mid = C * np.exp(-alpha * (np.maximum(x, -l) + l)) - h2
        left = C - h2 - (x + l) ** 2
        right = C * math.exp(-2.0 * alpha * l) - h2 - (x - l) ** 2
        return np.where(x < -l, left, np.where(x <= l, mid, right))

    def g(x):
        x = np.asarray(x, dtype=float)
        return r * r - x * x - f(x)

    return f, g


def classify_crossings(p: SystemParams, scenario: Scenario) -> RootReport:
    """Classify the outage-boundary roots for a lossy scenario.

    The clearance g rises strictly left of its single peak and falls
    strictly right of it (its slope is +2l on the left segment, strictly
    decreasing across the middle segment, and -2l on the right), so each
    side holds at most one root and every bracket below is guaranteed.
    The threshold curve f peaks at x = -l and its zeros have closed forms.
    """
    l = p.half_length(scenario)
    r, alpha = p.r, p.alpha
    h2 = p.h * p.h
    C = derive_constants(p).C
    f, g = crossing_functions(p, scenario)

    if C <= h2:
        # threshold curve non-positive everywhere: every chord is in outage
        return RootReport((), (), CASE_ALL_OUTAGE, degenerate=1.0)

    def peak_slope(x: float) -> float:
        return alpha * C * math.exp(-alpha * (x + l)) - 2.0 * x

    if peak_slope(l) >= 0.0:
        x_peak = l
    else:
        x_peak = find_root_bracketed(peak_slope, -l, l, tol=0.0)
    if float(g(x_peak)) <= 0.0:
        return RootReport((), (), CASE_NO_OUTAGE, degenerate=0.0)

    def g_scalar(x: float) -> float:
        return float(g(x))

    g_roots = []
    if float(g(-r)) < 0.0:
        a = find_root_bracketed(g_scalar, -r, x_peak, tol=0.0)
        g_roots.append(LabeledRoot(a, _interval_of(a, l)))
    if x_peak < r and float(g(r)) < 0.0:
        c = find_root_bracketed(g_scalar, x_peak, r, tol=0.0)
        g_roots.append(LabeledRoot(c, _interval_of(c, l)))

    f_roots = []
    if l < r and float(f(-r)) < 0.0:
        a_f = -l - math.sqrt(C - h2)
        f_roots.append(LabeledRoot(a_f, INTERVAL_LEFT))
    if float(f(r)) < 0.0:
        k2 = C * math.exp(-2.0 * alpha * l) - h2
        if k2 <= 0.0:
            b_f = -l + math.log(C / h2) / alpha
        else:
            b_f = l + math.sqrt(k2)
        f_roots.append(LabeledRoot(b_f, _interval_of(b_f, l)))

    short = lambda root: _SHORT[root.interval]
    if len(g_roots) == 2:
        case = f"g2-{short(g_roots[0])}-{short(g_roots[1])}"
    elif len(g_roots) == 1 and f_roots:
        case = f"g1f1-{short(g_roots[0])}-{short(f_roots[-1])}"
    elif not g_roots and len(f_roots) == 2:
        case = f"f2-{short(f_roots[0])}-{short(f_roots[1])}"
    else:
        # razor-edge sign pattern (roots pinned to interval ends); callers
        # fall back to numerical integration
        case = "unclassified"
    return RootReport(tuple(g_roots), tuple(f_roots), case)
