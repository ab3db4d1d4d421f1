"""Outage probability with waveguide attenuation (FWL, PWL).

A device at abscissa x is in outage when its squared transverse offset
exceeds the threshold curve f(x), so the lossy outage is one integral,
(2 / (pi r^2)) * integral of rho(x) - sqrt(max(f(x), 0)) over the x-range
where the clearance g = rho^2 - f is positive (rho the chord half-height).
This module owns it end to end: ``_Pieces`` writes f once, and the crossing
classifier finds one zero of g or f on each side of the clearance peak
(in closed form, or by monotone Newton iteration where g is concave) and
names the arrangement of the two, a < b, by their kind and side of the
guide.  One composed closed form covers all nine arrangements: a head
(the chord strip over [a, b], over [a, r], or 1), plus the strips of
sqrt(f) beyond -l from a and beyond +l to b, plus the Phi term over
[max(a, -l), min(b, l)].  Beyond the guide sqrt(f) is a circle about the
guide end, so every strip is a ``geometry.seg`` of it; only the strips
ending at two zeros of f (the f2 arrangements) are still asin arcs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import _sqrt_clamped, seg
from .params import Scenario, SystemParams

_RANGE_SLACK = 1e-9

CASE_ALL_OUTAGE = "all-outage"
CASE_NO_OUTAGE = "no-outage"


class RootReport(NamedTuple):
    """Root structure of the outage boundary for one lossy configuration.

    ``g_roots`` are the abscissas where the threshold curve crosses the
    squared chord height (the edges of the outage x-range); ``f_roots`` are
    the zeros of the threshold curve itself (beyond which whole chords are
    in outage).  Together, g roots first, they are two roots in x order,
    and ``case_id`` names their kind and the side of the guide each lies
    on: "g1f1-left-right" is a g root left of -l and an f root right of +l.
    The saturated cases ``all-outage`` and ``no-outage`` have no roots.
    """

    g_roots: tuple[float, ...]
    f_roots: tuple[float, ...]
    case_id: str


def _side(x: float, l: float) -> str:
    if x < -l:
        return "left"
    return "mid" if x <= l else "right"


class _Pieces:
    """Scalar building blocks for one lossy configuration.

    The guide spans [-l, l] (l = r at full coverage), fed from -l with
    attenuation p.alpha, and the antenna sits at clip(x, -l, l), so the
    threshold curve is f = M2 - (x + l)^2 left of the guide, omega(x) - h^2
    under it and K2 - (x - l)^2 right of it.
    """

    def __init__(self, p: SystemParams, l: float):
        self.r = p.r
        self.h = p.h
        self.h2 = p.h * p.h
        self.alpha = p.alpha
        self.l = l
        self.C = C = p.constants.C
        # omega(x) - h^2 vanishes at a threshold zero in exact arithmetic;
        # its rounding error grows with alpha*|x| through the exponent
        self.delta_scale = (C + self.h2) * max(1.0, p.alpha * p.r)
        self.pr2 = math.pi * p.r * p.r
        self.k2c = self.C * math.exp(-2.0 * p.alpha * l)   # omega at +l
        self.M2 = self.C - self.h2                          # f at the -l peak
        self.K2 = self.k2c - self.h2                        # f at +l

    def omega(self, x: float) -> float:
        return self.C * math.exp(-self.alpha * (x + self.l))

    def phi_diff(self, x_lo: float, x_hi: float) -> float:
        # Phi(x_hi) - Phi(x_lo) with Phi = h*atan(Delta/h) - Delta, written
        # against the omega increment so nearby endpoints do not cancel
        om_lo = self.omega(x_lo)
        d_om = om_lo * math.expm1(-self.alpha * (x_hi - x_lo))
        d_lo = _sqrt_clamped(om_lo - self.h2, self.delta_scale)
        d_hi = _sqrt_clamped(om_lo + d_om - self.h2, self.delta_scale)
        if d_lo + d_hi == 0.0:
            return 0.0
        d_delta = d_om / (d_lo + d_hi)
        h = self.h
        return h * math.atan(h * d_delta / (h * h + d_lo * d_hi)) - d_delta


# ---------------------------------------------------------------------------
# crossing classifier
# ---------------------------------------------------------------------------


def _peak_abscissa(alpha: float, C: float, l: float) -> float:
    # zero of the strictly decreasing middle-segment clearance slope
    # alpha*C*exp(-alpha*(x + l)) - 2x: alpha*x = W(z), z = alpha^2 C exp(-alpha l)/2,
    # the zero of F(w) = w - ln(z/w).  F is increasing and concave, so every
    # tangent lies above it and Newton from a lower bound of W (z/(1 + z) up
    # to e, ln z - ln ln z above) rises monotonically to the zero; stop at
    # the first step that does not rise.  At alpha = 0 the slope is -2x
    z = 0.5 * alpha * alpha * C * math.exp(-alpha * l)
    if z == 0.0:
        return 0.0
    if z <= math.e:
        w = z / (1.0 + z)
    else:
        w = math.log(z)
        w -= math.log(w)
    while True:
        w_next = w * (1.0 + math.log(z / w)) / (1.0 + w)
        if not w_next > w:
            return w / alpha
        w = w_next


def classify_crossings(p: SystemParams, scenario: Scenario) -> RootReport:
    """Classify the outage-boundary roots for a lossy scenario.

    The clearance g rises strictly left of its single peak and falls
    strictly right of it (its slope is +2l on the left segment, strictly
    decreasing across the middle segment, and -2l on the right), so each
    side holds at most one root.  On the outer segments g is linear,
    g = r^2 + l^2 + h^2 - C + 2lx on the left and
    g = r^2 + l^2 + h^2 - C exp(-2 alpha l) - 2lx on the right, so a root
    there is one division; a root on the middle segment is the limit of
    Newton's iteration from the guide end on its side, monotone because g
    is strictly concave there.  The threshold curve f peaks at x = -l
    and its zeros have closed forms.  Each side of the peak holds exactly
    one root, of g or of f, so there are two in x order: two of g, one of
    each, or two of f.
    """
    return _classify(_Pieces(p, _lossy_half_length(p, scenario)))


def _lossy_half_length(p: SystemParams, scenario: Scenario) -> float:
    if not scenario.lossy:
        raise ValueError("crossing analysis applies to the lossy scenarios only")
    return p.half_length(scenario)


def _classify(pc: _Pieces) -> RootReport:
    r, alpha, l, h2, C = pc.r, pc.alpha, pc.l, pc.h2, pc.C
    if C <= h2:
        # threshold curve non-positive everywhere: every chord is in outage
        return RootReport((), (), CASE_ALL_OUTAGE)

    def g_mid(x: float) -> float:
        return r * r - x * x - pc.omega(x) + h2

    def g_root(x: float, end: float) -> float:
        # Newton on g from the guide end x with g(x) <= 0 towards the root
        # between x and end (the peak).  g'' = -2 - alpha^2 omega < 0, so every
        # tangent lies above g and its zero falls between the iterate and the
        # root: the iterates move monotonically towards it.  Stop at the first
        # step that no longer lands strictly between the iterate and the peak
        while True:
            w = pc.omega(x)
            x_next = x - (r * r - x * x - w + h2) / (alpha * w - 2.0 * x)
            if not (x_next - x) * (end - x_next) > 0.0:
                return x
            x = x_next

    if alpha * pc.k2c - 2.0 * l >= 0.0:              # slope at +l
        x_peak = l
    else:
        x_peak = min(_peak_abscissa(alpha, C, l), l)
    if g_mid(x_peak) <= 0.0:
        return RootReport((), (), CASE_NO_OUTAGE)

    # the outer lines meet the middle curve at -l and +l; at l = r there
    # are no outer segments and g(-r), g(r) are middle-segment values
    outer = l < r
    left_line = r * r + l * l + h2 - C
    right_line = r * r + l * l + h2 - pc.k2c
    g_left = left_line - 2.0 * l * r if outer else g_mid(-l)
    g_right = right_line - 2.0 * l * r if outer else g_mid(l)
    # One sign per side picks the root.  The chord has zero height at +-r,
    # so g(+-r) = -f(+-r): a side holds a g root when g < 0 at its edge and
    # an f root otherwise.  In floats too there are always two: at l = r,
    # g(-r) = h^2 - C < 0 and g_mid(r) is -K2 bit for bit; rounding is
    # monotone and k2c <= C, so g_right >= g_left, and a left f root forces
    # a right one.  No "g2-left-mid": a left root needs g(-l) > 0, i.e.
    # C < r^2 - l^2 + h^2, and a middle root c > -l then needs
    # r^2 + h^2 - c^2 = C exp(-alpha (c + l)) < C, so c^2 > l^2 and c > l.
    g_roots, f_roots = [], []
    if g_left < 0.0:
        if outer and g_mid(-l) > 0.0:
            a = -left_line / (2.0 * l)
        else:
            a = g_root(-l, x_peak)
        g_roots.append(a)
    else:
        f_roots.append(-l - math.sqrt(pc.M2))
    if x_peak < r and g_right < 0.0:
        if outer and g_mid(l) > 0.0:
            c = right_line / (2.0 * l)
        else:
            c = g_root(l, x_peak)
        g_roots.append(c)
    else:
        # f falls from its peak at -l: its zero is beyond +l when K2 = f(l)
        # is positive, else under the guide, where rounding must not push
        # it past +l (the f2 arc there would divide by sqrt(K2) = 0)
        f_roots.append(l + math.sqrt(pc.K2) if pc.K2 > 0.0
                       else min(-l + math.log(C / h2) / alpha, l))

    first, last = g_roots + f_roots
    kind = ("f2", "g1f1", "g2")[len(g_roots)]
    case = f"{kind}-{_side(first, l)}-{_side(last, l)}"
    return RootReport(tuple(g_roots), tuple(f_roots), case)


# ---------------------------------------------------------------------------
# closed form, composed per root arrangement
# ---------------------------------------------------------------------------


def _closed_form(pc: _Pieces, n_g: int, a: float, b: float) -> float:
    # head + (2 / (pi r^2)) (L - R) + the Phi term over the guided part of
    # [a, b], n_g of the roots being of g.  L and R are the integrals of
    # sqrt(f) over the outer segments, beyond -l from a and beyond +l to b,
    # where sqrt(f) is a circle about the guide end (radius sqrt(M2) on the
    # left, sqrt(K2) on the right); 0 for a root under the guide
    l = pc.l
    left = right = 0.0
    if n_g == 0:
        # f < 0 outside [a, b]: whole chords there are in outage, and each
        # arc ends at a zero of f, where only its angle term remains.  Each
        # arc is a seg of its circle, but its asin is off by up to 2e-9 at
        # the zero; they stay because the stored figure references hold them
        head = 1.0
        if a < -l:
            left = 0.5 * pc.M2 * math.asin(max((a + l) / math.sqrt(pc.M2), -1.0))
        if b > l:
            right = 0.5 * pc.K2 * math.asin(min((b - l) / math.sqrt(pc.K2), 1.0))
    else:
        # with one root of each, outage runs from the g root a to the edge
        # and b is the f root.  Each strip is clamped to its circle: the
        # shift by l rounds away the relative precision of a small radius
        head = seg(pc.r, a, b if n_g == 2 else pc.r) / pc.pr2
        if a < -l:
            q = math.sqrt(pc.M2)
            left = -0.5 * seg(q, max(a + l, -q), 0.0)
        if b > l:
            q = math.sqrt(pc.K2)
            right = 0.5 * seg(q, 0.0, min(b - l, q))
    # the Phi term is -(4 / (alpha pi r^2)) [Phi] over [max(a, -l), min(b, l)]
    return (head + 2.0 / pc.pr2 * (left - right)
            - 4.0 / (pc.alpha * pc.pr2) * pc.phi_diff(max(a, -l), min(b, l)))


def evaluate_lossy_outage(p: SystemParams, scenario: Scenario,
                          report: RootReport | None = None) -> tuple[float, str]:
    """Outage of a lossy scenario: :func:`lossy_outage` at its half-length."""
    return lossy_outage(p, _lossy_half_length(p, scenario), report)


def lossy_outage(p: SystemParams, l: float,
                 report: RootReport | None = None) -> tuple[float, str]:
    """Lossy outage of a guide of half-length ``l`` (attenuation ``p.alpha`` > 0).

    Classifies the root arrangement (unless ``report`` is given) and
    evaluates the composed closed form; returns (outage, case_id).  A value
    outside [0, 1] beyond rounding slack is a numerical error and raises
    ArithmeticError naming the case.
    """
    pc = _Pieces(p, l)
    if report is None:
        report = _classify(pc)
    case = report.case_id
    if case in (CASE_ALL_OUTAGE, CASE_NO_OUTAGE):
        return float(case == CASE_ALL_OUTAGE), case

    first, last = report.g_roots + report.f_roots
    value = _closed_form(pc, len(report.g_roots), first, last)
    if not -_RANGE_SLACK <= value <= 1.0 + _RANGE_SLACK:
        raise ArithmeticError(f"lossy outage closed form for case {case!r} "
                              f"gave {value!r}, outside [0, 1]")
    return min(max(value, 0.0), 1.0), case
