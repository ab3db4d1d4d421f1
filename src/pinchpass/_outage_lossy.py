"""Piecewise closed forms for outage probability with waveguide attenuation.

The outage region at abscissa x is the part of the chord with squared
transverse offset above the threshold curve f(x); its half-length is
rho(x) - sqrt(max(f(x), 0)) wherever the clearance g = rho^2 - f is
positive.  Each root arrangement reported by the crossing classifier has a
dedicated antiderivative-based expression; arrangements without one (razor
edge sign patterns) integrate the region numerically.
"""

from __future__ import annotations

import logging
import math

from .numerics import (
    CASE_ALL_OUTAGE,
    CASE_NO_OUTAGE,
    RootReport,
    classify_crossings,
    crossing_functions,
)
from .params import Scenario, SystemParams

logger = logging.getLogger(__name__)

_RANGE_SLACK = 1e-9


def _sqrt_clamped(value: float, scale: float) -> float:
    # roots sit exactly on the domain edge in exact arithmetic
    if value < 0.0:
        if value < -1e-12 * scale:
            raise ValueError(f"square-root argument {value!r} beyond clamp window")
        return 0.0
    return math.sqrt(value)


def _asin_clamped(u: float) -> float:
    if u < -1.0:
        u = -1.0
    elif u > 1.0:
        u = 1.0
    return math.asin(u)


class _Pieces:
    """Scalar building blocks for one (params, half-length) configuration."""

    def __init__(self, p: SystemParams, l: float, C: float):
        self.r = p.r
        self.h = p.h
        self.h2 = p.h * p.h
        self.alpha = p.alpha
        self.l = l
        self.C = C
        self.scale = self.C + self.h2
        # omega(x) - h^2 vanishes at a threshold zero in exact arithmetic;
        # its rounding error grows with alpha*|x| through the exponent
        self.delta_scale = self.scale * max(1.0, p.alpha * p.r)
        self.pr2 = math.pi * p.r * p.r
        self.M2 = self.C - self.h2                      # f at the -l peak
        self.K2 = self.C * math.exp(-2.0 * p.alpha * l) - self.h2   # f at +l

    def rho(self, x: float) -> float:
        return _sqrt_clamped(self.r * self.r - x * x, self.r * self.r)

    def omega(self, x: float) -> float:
        return self.C * math.exp(-self.alpha * (x + self.l))

    def strip(self, a: float, c: float) -> float:
        # area fraction between the chord and nothing over [a, c]
        r = self.r
        return (r * r * (_asin_clamped(c / r) - _asin_clamped(a / r))
                + c * self.rho(c) - a * self.rho(a)) / self.pr2

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

    def phi_term(self, x_lo: float, x_hi: float) -> float:
        # the -(4 / (alpha pi r^2)) [Phi]_{x_lo}^{x_hi} contribution
        return -4.0 / (self.alpha * self.pr2) * self.phi_diff(x_lo, x_hi)

    def right_cap(self, x: float) -> float:
        # integral of sqrt(K^2 - (u-l)^2) from l to x
        k2 = self.K2
        k = _sqrt_clamped(k2, self.scale)
        u = x - self.l
        return 0.5 * u * _sqrt_clamped(k2 - u * u, self.scale) \
            + 0.5 * k2 * _asin_clamped(u / k if k > 0.0 else 1.0)

    def left_cap(self, x: float) -> float:
        # integral building block sqrt(M^2 - (u+l)^2) on the left segment
        m2 = self.M2
        m = _sqrt_clamped(m2, self.scale)
        u = x + self.l
        return 0.5 * u * _sqrt_clamped(m2 - u * u, self.scale) \
            + 0.5 * m2 * _asin_clamped(u / m if m > 0.0 else -1.0)


def _case_g2_mid_mid(pc: _Pieces, a: float, c: float) -> float:
    return pc.strip(a, c) + pc.phi_term(a, c)


def _case_g2_mid_right(pc: _Pieces, a: float, c: float) -> float:
    return pc.strip(a, c) - 2.0 / pc.pr2 * pc.right_cap(c) + pc.phi_term(a, pc.l)


def _case_g2_left_right(pc: _Pieces, a: float, c: float) -> float:
    return (pc.strip(a, c) + 2.0 / pc.pr2 * pc.left_cap(a)
            - 2.0 / pc.pr2 * pc.right_cap(c) + pc.phi_term(-pc.l, pc.l))


def _case_g1f1_left_mid(pc: _Pieces, a: float, b: float) -> float:
    r = pc.r
    return (0.5 + 2.0 / pc.pr2 * (pc.left_cap(a) - 0.5 * a * pc.rho(a)
                                  - 0.5 * r * r * _asin_clamped(a / r))
            + pc.phi_term(-pc.l, b))


def _case_g1f1_left_right(pc: _Pieces, a: float, b: float) -> float:
    r = pc.r
    quarter = math.pi * r * r / 4.0
    return 2.0 / pc.pr2 * (quarter - 0.5 * a * pc.rho(a)
                           - 0.5 * r * r * _asin_clamped(a / r)
                           + pc.left_cap(a) - pc.right_cap(b)) \
        + pc.phi_term(-pc.l, pc.l)


def _case_g1f1_mid_mid(pc: _Pieces, a: float, b: float) -> float:
    r = pc.r
    return (r * r * (math.pi / 2.0 - _asin_clamped(a / r)) - a * pc.rho(a)) / pc.pr2 \
        + pc.phi_term(a, b)


def _case_g1f1_mid_right(pc: _Pieces, a: float, b: float) -> float:
    r = pc.r
    quarter = math.pi * r * r / 4.0
    return 2.0 / pc.pr2 * (quarter - 0.5 * a * pc.rho(a)
                           - 0.5 * r * r * _asin_clamped(a / r)
                           - pc.right_cap(b)) \
        + pc.phi_term(a, pc.l)


def _case_f2_left_mid(pc: _Pieces, a: float, b: float) -> float:
    m = _sqrt_clamped(pc.M2, pc.scale)
    return 1.0 + 2.0 / pc.pr2 * (0.5 * pc.M2 * _asin_clamped((a + pc.l) / m)) \
        + pc.phi_term(-pc.l, b)


def _case_f2_left_right(pc: _Pieces, a: float, b: float) -> float:
    m = _sqrt_clamped(pc.M2, pc.scale)
    k = _sqrt_clamped(pc.K2, pc.scale)
    return 1.0 + 2.0 / pc.pr2 * (0.5 * pc.M2 * _asin_clamped((a + pc.l) / m)
                                 - 0.5 * pc.K2 * _asin_clamped((b - pc.l) / k)) \
        + pc.phi_term(-pc.l, pc.l)


_G2_CASES = {
    "g2-mid-mid": _case_g2_mid_mid,
    "g2-mid-right": _case_g2_mid_right,
    "g2-left-right": _case_g2_left_right,
}
_G1F1_CASES = {
    "g1f1-left-mid": _case_g1f1_left_mid,
    "g1f1-left-right": _case_g1f1_left_right,
    "g1f1-mid-mid": _case_g1f1_mid_mid,
    "g1f1-mid-right": _case_g1f1_mid_right,
}
_F2_CASES = {
    "f2-left-mid": _case_f2_left_mid,
    "f2-left-right": _case_f2_left_right,
}
# No "g2-left-mid": a left root needs g(-l) > 0, i.e. C < r^2 - l^2 + h^2,
# and a middle root c > -l then needs r^2 + h^2 - c^2 = C exp(-alpha (c + l))
# < C, which forces c^2 > l^2, i.e. c > l: the second root is never middle.
_NUMERIC_CASES = {"unclassified"}

_KNOWN_CASES = (set(_G2_CASES) | set(_G1F1_CASES) | set(_F2_CASES)
                | _NUMERIC_CASES | {CASE_ALL_OUTAGE, CASE_NO_OUTAGE})


def outage_numeric(p: SystemParams, scenario: Scenario) -> float:
    """Direct integration of the outage region (fallback and test oracle)."""
    # imported here, as spence in numerics: `import pinchpass` loads no
    # scipy, and only this rare fallback needs scipy.integrate
    from scipy.integrate import quad

    f, _ = crossing_functions(p, scenario)
    l = p.half_length(scenario)
    r = p.r

    def integrand(x: float) -> float:
        rho2 = max(r * r - x * x, 0.0)
        fv = min(max(float(f(x)), 0.0), rho2)
        return math.sqrt(rho2) - math.sqrt(fv)

    cuts = sorted({-r, r} | {v for v in (-l, l) if -r < v < r})
    total = sum(quad(integrand, lo, hi, limit=200)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
    return 2.0 * total / (math.pi * r * r)


def evaluate_lossy_outage(p: SystemParams, scenario: Scenario,
                          report: RootReport | None = None) -> tuple[float, str]:
    """Dispatch the classified root arrangement to its closed form.

    Returns (outage, case_id); the case id gains a ``+numeric`` suffix when
    the numerical fallback was used.  Raises RuntimeError if the classifier
    emits a case outside the known vocabulary.
    """
    if report is None:
        report = classify_crossings(p, scenario)
    if report.case_id not in _KNOWN_CASES:
        raise RuntimeError(f"no evaluation path for case {report.case_id!r}")
    if report.degenerate is not None:
        return report.degenerate, report.case_id

    pc = _Pieces(p, p.half_length(scenario), report.C)
    case = report.case_id
    if case in _NUMERIC_CASES:
        logger.warning("case %s has no closed form; integrating numerically", case)
        return outage_numeric(p, scenario), case + "+numeric"
    if case in _G2_CASES:
        value = _G2_CASES[case](pc, report.g_roots[0].value, report.g_roots[1].value)
    elif case in _G1F1_CASES:
        value = _G1F1_CASES[case](pc, report.g_roots[0].value, report.f_roots[-1].value)
    else:
        value = _F2_CASES[case](pc, report.f_roots[0].value, report.f_roots[1].value)

    if not -_RANGE_SLACK <= value <= 1.0 + _RANGE_SLACK:
        logger.warning("case %s produced %.3e outside [0, 1]; integrating numerically",
                       case, value)
        return outage_numeric(p, scenario), case + "+numeric"
    return min(max(value, 0.0), 1.0), case
