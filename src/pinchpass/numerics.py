"""Special functions and solvers behind the closed forms.

Real dilogarithm on the non-positive axis, the special function of the
paper's lossy full-coverage rate expression (``scipy.special.spence``,
imported on first use, with a short Gauss-Legendre rule for differences of
nearly equal arguments), Gauss-Chebyshev (first kind) quadrature,
bracketed root finding, and the classifier that turns the threshold/chord
crossing structure of the lossy scenarios into a dispatch decision.  The
classifier works on Python floats: the outer-segment roots are closed
forms, and the clearance peak and a root on the middle segment are found
by the bracketed root finder.  Importing this module loads no scipy.
"""

from __future__ import annotations

import functools
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

    def weighted_sum(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """(pi/n) * sum f(t_k), i.e. the integral of f(t)/sqrt(1-t^2)."""
        return self.weight * float(np.sum(f(self.nodes)))

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
    ``C`` is the derived constant the roots were found with.
    """

    g_roots: tuple[LabeledRoot, ...]
    f_roots: tuple[LabeledRoot, ...]
    case_id: str
    C: float
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


def _peak_abscissa(alpha: float, C: float, l: float) -> float:
    # zero of the strictly decreasing middle-segment clearance slope
    # alpha*C*exp(-alpha*(x + l)) - 2x = 2*(m*exp(-alpha*x) - x): positive at
    # 0 and <= 0 at log1p(alpha*m)/alpha <= m, an end that is the zero to
    # rounding where the slope there rounds >= 0; at alpha = 0 it is -2x
    if alpha == 0.0:
        return 0.0
    m = 0.5 * alpha * C * math.exp(-alpha * l)
    hi = min(m, math.log1p(alpha * m) / alpha)
    half_slope = lambda x: m * math.exp(-alpha * x) - x
    if hi == 0.0 or half_slope(hi) >= 0.0:
        return hi
    return find_root_bracketed(half_slope, 0.0, hi, tol=0.0)


def classify_crossings(p: SystemParams, scenario: Scenario) -> RootReport:
    """Classify the outage-boundary roots for a lossy scenario.

    The clearance g rises strictly left of its single peak and falls
    strictly right of it (its slope is +2l on the left segment, strictly
    decreasing across the middle segment, and -2l on the right), so each
    side holds at most one root.  On the outer segments g is linear,
    g = r^2 + l^2 + h^2 - C + 2lx on the left and
    g = r^2 + l^2 + h^2 - C exp(-2 alpha l) - 2lx on the right, so a root
    there is one division; a root on the middle segment is bracketed
    between its end and the peak.  The threshold curve f peaks at x = -l
    and its zeros have closed forms.
    """
    if not scenario.lossy:
        raise ValueError("crossing analysis applies to the lossy scenarios only")
    l = p.half_length(scenario)
    r, alpha = p.r, p.alpha
    h2 = p.h * p.h
    C = derive_constants(p).C

    if C <= h2:
        # threshold curve non-positive everywhere: every chord is in outage
        return RootReport((), (), CASE_ALL_OUTAGE, C, degenerate=1.0)

    def g_mid(x: float) -> float:
        return r * r - x * x - C * math.exp(-alpha * (x + l)) + h2

    k2c = C * math.exp(-2.0 * alpha * l)            # C exp(-2 alpha l)
    if alpha * k2c - 2.0 * l >= 0.0:                 # slope at +l
        x_peak = l
    else:
        x_peak = min(_peak_abscissa(alpha, C, l), l)
    if g_mid(x_peak) <= 0.0:
        return RootReport((), (), CASE_NO_OUTAGE, C, degenerate=0.0)

    # the outer lines meet the middle curve at -l and +l; at l = r there
    # are no outer segments and g(-r), g(r) are middle-segment values
    outer = l < r
    left_line = r * r + l * l + h2 - C
    right_line = r * r + l * l + h2 - k2c
    g_left = left_line - 2.0 * l * r if outer else g_mid(-l)
    g_right = right_line - 2.0 * l * r if outer else g_mid(l)
    g_roots = []
    if g_left < 0.0:
        if outer and g_mid(-l) > 0.0:
            a = -left_line / (2.0 * l)
        else:
            a = find_root_bracketed(g_mid, -l, x_peak, tol=0.0)
        g_roots.append(LabeledRoot(a, _interval_of(a, l)))
    if x_peak < r and g_right < 0.0:
        if outer and g_mid(l) > 0.0:
            c = right_line / (2.0 * l)
        else:
            c = find_root_bracketed(g_mid, x_peak, l, tol=0.0)
        g_roots.append(LabeledRoot(c, _interval_of(c, l)))

    f_roots = []
    if outer and C - h2 < (r - l) ** 2:              # f(-r) < 0
        a_f = -l - math.sqrt(C - h2)
        f_roots.append(LabeledRoot(a_f, INTERVAL_LEFT))
    k2 = k2c - h2
    if k2 < (r - l) ** 2:                            # f(r) < 0
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
    return RootReport(tuple(g_roots), tuple(f_roots), case, C)
