"""System configuration, unit conversions, and derived link-budget constants.

Everything internal runs in SI linear units (meters, watts, hertz); dB and
dBm appear only at the input/output boundary.  The geometry is a circular
floor region of radius ``r`` served by a dielectric waveguide mounted at
height ``h`` whose projection passes through the center of the region.  A
pinching antenna slides along the waveguide to the point nearest the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

SPEED_OF_LIGHT = 299_792_458.0
"""Exact speed of light, m/s."""

SPEED_OF_LIGHT_ROUNDED = 3.0e8
"""Rounded c = 3e8 m/s, used by the bundled experiment presets."""

DEFAULT_QUADRATURE_NODES = 200
"""Default Gauss-Chebyshev node count for the rate evaluations."""


def dbm_to_watts(power_dbm: float) -> float:
    """Convert a power from dBm to watts (inf beyond the float range)."""
    return db_to_linear(power_dbm - 30.0)


def watts_to_dbm(power_watts: float) -> float:
    """Convert a power from watts to dBm."""
    return 10.0 * math.log10(power_watts) + 30.0


def db_to_linear(ratio_db: float) -> float:
    """Convert a dB ratio to a linear ratio (inf beyond the float range)."""
    try:
        return 10.0 ** (ratio_db / 10.0)
    except OverflowError:
        return math.inf


def linear_to_db(ratio: float) -> float:
    """Convert a linear ratio to dB."""
    return 10.0 * math.log10(ratio)


class Scenario(Enum):
    """Waveguide configuration under analysis.

    FWNL  full coverage waveguide, no propagation loss
    FWL   full coverage waveguide with propagation loss
    PWNL  partial coverage waveguide, no propagation loss
    PWL   partial coverage waveguide with propagation loss
    """

    FWNL = "FWNL"
    FWL = "FWL"
    PWNL = "PWNL"
    PWL = "PWL"

    def __init__(self, value: str):
        # plain member attributes: every evaluate call reads them, and a
        # property testing membership costs ten times an attribute read
        self.full_coverage = value.startswith("F")
        self.lossy = not value.endswith("NL")

    @classmethod
    def parse(cls, text: str) -> "Scenario":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            valid = ", ".join(s.name for s in cls)
            raise ValueError(f"unknown scenario {text!r}; expected one of {valid}") from None


@dataclass(frozen=True)
class SystemParams:
    """Physical configuration of one analysis run.

    Attributes
    ----------
    r : float
        Radius of the circular service region, m.
    h : float
        Waveguide height above the floor, m.
    f_c : float
        Carrier frequency, Hz.
    sigma2 : float
        Noise power, W.
    p_t : float
        Transmit power, W.
    alpha : float
        Waveguide attenuation coefficient, 1/m (0 = lossless guide).
    l : float
        Waveguide half-length for partial coverage, m.  Full-coverage
        scenarios behave as if l == r.
    gamma_th : float
        SNR outage threshold, linear ratio.
    c : float
        Speed of light, m/s.  Defaults to the exact value; the presets use
        the rounded 3e8 figure.
    constants : DerivedConstants
        ``derive_constants(self)``, stored when built; not a field, so ``==``,
        ``hash`` and ``repr`` ignore it, and every copy derives its own.
    """

    r: float
    h: float
    f_c: float
    sigma2: float
    p_t: float
    alpha: float
    l: float
    gamma_th: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        # the closed forms square r, h, r/h, f_c and c, and divide by those
        # squares, sigma2*h^2 and sigma2*gamma_th: none of them may overflow
        # or underflow to zero.  Nothing is clamped
        r, h, in_range = self.r, self.h, lambda x: 0.0 < x < math.inf
        checks = (
            ("r", r, r > 0 and in_range(r * r)),
            ("h", h, h > 0 and in_range(h * h) and in_range((r / h) * (r / h))),
            ("f_c", self.f_c, self.f_c > 0 and in_range(self.f_c * self.f_c)),
            ("sigma2", self.sigma2, self.sigma2 > 0 and in_range(self.sigma2 * h * h)),
            ("p_t", self.p_t, self.p_t > 0),
            ("alpha", self.alpha, self.alpha >= 0),
            ("l", self.l, 0 < self.l),
            ("gamma_th", self.gamma_th,
             self.gamma_th > 0 and in_range(self.sigma2 * self.gamma_th)),
            ("c", self.c, self.c > 0 and in_range(self.c * self.c)),
        )
        for name, value, ok in checks:
            if not (ok and math.isfinite(value)):
                raise ValueError(f"invalid SystemParams.{name} = {value!r}")
        if self.l > r:
            raise ValueError(f"invalid SystemParams.l = {self.l!r} beyond r = {r!r}")
        # C = 0, the all-outage limit, is legal; an infinite constant is not
        constants = derive_constants(self)
        for name, definition in _DEFINITIONS.items():
            if not math.isfinite(value := getattr(constants, name)):
                raise ValueError(f"invalid SystemParams: {name} = {definition} = {value!r}")
        # nor is the rates' unit-distance SNR e, their largest SNR e/h^2, or rho^2 + h^2
        eta_p_t = constants.eta * self.p_t
        for quantity, value in (("e = eta*p_t/sigma2", eta_p_t / self.sigma2),
                                ("e/h^2 = eta*p_t/(sigma2*h^2)", eta_p_t / (self.sigma2 * h * h)),
                                ("r^2 + h^2", r * r + h * h)):
            if not math.isfinite(value):
                raise ValueError(f"invalid SystemParams: {quantity} = {value!r}")
        object.__setattr__(self, "constants", constants)

    def half_length(self, scenario: Scenario) -> float:
        """Effective waveguide half-length for a scenario."""
        return self.r if scenario.full_coverage else self.l

    def with_(self, **overrides) -> "SystemParams":
        """Copy with selected fields replaced (validation re-runs)."""
        return replace(self, **overrides)

    @classmethod
    def reference(cls, gamma_t_db: float = 105.0, **overrides) -> "SystemParams":
        """Baseline indoor configuration used by the bundled presets.

        28 GHz carrier, -90 dBm noise, 25 m region, 10 m mount height,
        threshold 100 (20 dB), attenuation 0.02 /m, half-length r/2 unless l
        is given, and the rounded speed of light.  ``gamma_t_db`` sets p_t via
        the transmit SNR p_t/sigma2, unless p_t is given.
        """
        sigma2 = overrides.pop("sigma2", dbm_to_watts(-90.0))
        snr = db_to_linear(gamma_t_db)
        if not 0.0 < snr < math.inf:
            raise ValueError(f"invalid gamma_t_db = {gamma_t_db!r}: p_t/sigma2 = {snr!r}")
        if "p_t" not in overrides and sigma2 * snr == math.inf:
            raise ValueError(f"invalid SystemParams.sigma2 = {sigma2!r}: p_t = sigma2 * "
                             f"10^(gamma_t_db/10) overflows at gamma_t_db = {gamma_t_db!r}")
        base = dict(
            r=25.0,
            h=10.0,
            f_c=28.0e9,
            sigma2=sigma2,
            p_t=sigma2 * snr,
            alpha=0.02,
            gamma_th=100.0,
            c=SPEED_OF_LIGHT_ROUNDED,
        )
        base.update(overrides)
        base.setdefault("l", base["r"] / 2.0)
        return cls(**base)


class DerivedConstants(NamedTuple):
    """Shorthand constants computed once from :class:`SystemParams`.

    eta    free-space loss factor at 1 m reference distance, m^2
    A      threshold crossing bound for the lossless squared distance
           budget: eta*p_t/(sigma2*gamma_th) - h^2, m^2
    B      eta*p_t + sigma2*h^2, W*m^2
    C      eta*p_t/(sigma2*gamma_th), m^2  (A = C - h^2 exactly)
    Gamma  sqrt(1 + sigma2*r^2/B), dimensionless
    Lambda sqrt(1 + r^2/h^2), dimensionless
    """

    eta: float
    A: float
    B: float
    C: float
    Gamma: float
    Lambda: float


# each derived constant's definition, each after those it reads
_DEFINITIONS = {"eta": "c^2/(16 pi^2 f_c^2)", "C": "eta*p_t/(sigma2*gamma_th)", "A": "C - h^2",
                "B": "eta*p_t + sigma2*h^2", "Gamma": "sqrt(1 + sigma2*r^2/B)",
                "Lambda": "sqrt(1 + (r/h)^2)"}


def derive_constants(p: SystemParams) -> DerivedConstants:
    """Compute all derived constants for a configuration (pure function)."""
    eta = p.c * p.c / (16.0 * math.pi * math.pi * p.f_c * p.f_c)
    C = eta * p.p_t / (p.sigma2 * p.gamma_th)
    A = C - p.h * p.h
    B = eta * p.p_t + p.sigma2 * p.h * p.h
    Gamma = math.sqrt(1.0 + p.sigma2 * p.r * p.r / B)
    Lambda = math.sqrt(1.0 + (p.r / p.h) ** 2)
    return DerivedConstants(eta, A, B, C, Gamma, Lambda)
