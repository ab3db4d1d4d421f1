"""Seeded inputs for the benchmark workloads.

Everything here is the benchmark's own: the draws, the stratification and
the root-arrangement labels it stratifies on.  Nothing is taken from the
package under test, so a refactor of its classifier cannot change the
inputs it is measured on.

The acceptance box is the paper's and the test suite's domain: r 10-40 m,
h 3-15 m, alpha 0-0.05 1/m, l/r 1e-3-1 (log-uniform), transmit SNR
85-125 dB, on the reference 28 GHz / -90 dBm / threshold-100 link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 20260810
BOX = {
    "r": (10.0, 40.0),
    "h": (3.0, 15.0),
    "alpha": (0.0, 0.05),
    "l_frac": (1e-3, 1.0),
    "gamma_t_db": (85.0, 125.0),
}
# The searches run on the paper's reference configuration (r 25 m, h 10 m,
# 105 dB), as figures 4 and 7 do: their cost depends strongly on the
# configuration, so a seeded base would make the unit's work vary by seed.
SEARCH_BASE = (25.0, 10.0, 105.0)
SEARCH_ALPHAS = (0.01, 0.02, 0.03, 0.04)
NODE_COUNTS = (200, 2000)

# Reference link: c = 3e8, f_c = 28 GHz, sigma2 = -90 dBm, gamma_th = 100.
_ETA = (3.0e8) ** 2 / (16.0 * math.pi ** 2 * (28.0e9) ** 2)
_GAMMA_TH = 100.0

# Root arrangements reachable inside the box, per lossy scenario.  Plain
# uniform draws are ~70 % all-outage/no-outage and hit the rarest PWL
# arrangement (g1f1-mid-mid) about once in 600 draws, so each arrangement
# gets a fixed quota instead.  g2-left-mid cannot occur and "unclassified"
# needs a razor-edge sign pattern, so neither is a target.
STRATA = (
    ("FWL", "all-outage"), ("FWL", "no-outage"),
    ("FWL", "g2-mid-mid"), ("FWL", "g1f1-mid-mid"),
    ("PWL", "all-outage"), ("PWL", "no-outage"),
    ("PWL", "g2-mid-mid"), ("PWL", "g2-mid-right"), ("PWL", "g2-left-right"),
    ("PWL", "g1f1-left-mid"), ("PWL", "g1f1-left-right"),
    ("PWL", "g1f1-mid-mid"), ("PWL", "g1f1-mid-right"),
    ("PWL", "f2-left-mid"), ("PWL", "f2-left-right"),
)
PER_STRATUM = 10
LOSSLESS_CONFIGS = 6          # alpha == 0 exactly: the lossless re-routes
_BATCH = 4096
_MAX_BATCHES = 64
_MARGIN = 1e-6                # relative sign margin that keeps labels unambiguous


@dataclass(frozen=True)
class Config:
    """One system configuration of the closed_form workload."""

    r: float
    h: float
    alpha: float
    l: float
    gamma_t_db: float
    labels: tuple[tuple[str, str], ...] = ()   # expected lossy case ids, empty if lossless


def _draw(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    lo, hi = BOX["l_frac"]
    return {
        "r": rng.uniform(*BOX["r"], n),
        "h": rng.uniform(*BOX["h"], n),
        "alpha": rng.uniform(*BOX["alpha"], n),
        "l_frac": np.exp(rng.uniform(math.log(lo), math.log(hi), n)),
        "gamma_t_db": rng.uniform(*BOX["gamma_t_db"], n),
    }


def case_labels(r, h, alpha, l, gamma_t_db):
    """Lossy root-arrangement label for each draw, or None where ambiguous.

    Vectorized over numpy arrays.  The clearance g = r^2 - x^2 - f rises
    with slope 2l left of -l, peaks in [-l, l] where
    alpha*C*exp(-alpha(x+l)) = 2x, and falls with slope -2l right of l, so
    the arrangement follows from the signs of g and of the threshold curve
    f at -r, -l, l, r and at the peak.  A draw whose deciding value lies
    within a relative margin of zero is labelled None and never selected.
    """
    C = _ETA * 10.0 ** (gamma_t_db / 10.0) / _GAMMA_TH
    h2 = h * h
    scale = r * r + C

    def f(x):
        mid = C * np.exp(-alpha * (x + l)) - h2
        left = C - h2 - (x + l) ** 2
        right = C * np.exp(-2.0 * alpha * l) - h2 - (x - l) ** 2
        return np.where(x < -l, left, np.where(x <= l, mid, right))

    def g(x):
        return r * r - x * x - f(x)

    lo, hi = -l.copy(), l.copy()
    for _ in range(100):                       # bisection on the peak slope
        mid = 0.5 * (lo + hi)
        rising = alpha * C * np.exp(-alpha * (mid + l)) - 2.0 * mid > 0.0
        lo, hi = np.where(rising, mid, lo), np.where(rising, hi, mid)
    x_peak = np.where(alpha * C * np.exp(-2.0 * alpha * l) - 2.0 * l >= 0.0, l, 0.5 * (lo + hi))

    partial = l < r
    k2 = C * np.exp(-2.0 * alpha * l) - h2
    g_peak, g_lo, g_hi, f_lo, f_hi = g(x_peak), g(-r), g(r), f(-r), f(r)
    g_left = np.where(partial, g(-l), scale)
    g_right = np.where(partial, g(l), scale)
    ambiguous = np.zeros(r.shape, dtype=bool)
    for value in (C - h2, g_peak, g_lo, g_hi, f_lo, f_hi, k2, g_left, g_right):
        ambiguous |= np.abs(value) <= _MARGIN * scale

    labels = []
    for i in range(r.size):
        if ambiguous[i]:
            labels.append(None)
            continue
        if C[i] <= h2[i]:
            labels.append("all-outage")
            continue
        if g_peak[i] <= 0.0:
            labels.append("no-outage")
            continue
        g_roots, f_roots = [], []
        if g_lo[i] < 0.0:
            g_roots.append("left" if partial[i] and g_left[i] > 0.0 else "mid")
        if x_peak[i] < r[i] and g_hi[i] < 0.0:
            g_roots.append("right" if partial[i] and g_right[i] > 0.0 else "mid")
        if partial[i] and f_lo[i] < 0.0:
            f_roots.append("left")
        if f_hi[i] < 0.0:
            f_roots.append("mid" if k2[i] <= 0.0 else "right")
        if len(g_roots) == 2:
            labels.append(f"g2-{g_roots[0]}-{g_roots[1]}")
        elif len(g_roots) == 1 and f_roots:
            labels.append(f"g1f1-{g_roots[0]}-{f_roots[-1]}")
        elif not g_roots and len(f_roots) == 2:
            labels.append(f"f2-{f_roots[0]}-{f_roots[1]}")
        else:
            labels.append(None)
    return labels


def _labels_for(batch: dict[str, np.ndarray], idx: np.ndarray, scenario: str):
    # labels of the candidates in idx; full coverage means l = r
    r = batch["r"][idx]
    l = r if scenario == "FWL" else batch["l_frac"][idx] * r
    return case_labels(r, batch["h"][idx], batch["alpha"][idx], l, batch["gamma_t_db"][idx])


def closed_form_configs(seed: int) -> tuple[Config, ...]:
    """Stratified configurations: PER_STRATUM per arrangement, plus lossless ones.

    Candidates are drawn uniformly over the box in batches and assigned in
    draw order to the first stratum whose quota is still open.
    """
    rng = np.random.default_rng(seed)
    quota = {s: PER_STRATUM for s in STRATA}
    configs: list[Config] = []
    for _ in range(_MAX_BATCHES):
        batch = _draw(rng, _BATCH)
        idx = np.flatnonzero(batch["alpha"] > 0.0)
        fwl = _labels_for(batch, idx, "FWL")
        pwl = _labels_for(batch, idx, "PWL")
        for k, i in enumerate(idx):
            if fwl[k] is None or pwl[k] is None:
                continue
            for stratum in (("FWL", fwl[k]), ("PWL", pwl[k])):
                if quota.get(stratum, 0) > 0:
                    quota[stratum] -= 1
                    r = float(batch["r"][i])
                    configs.append(Config(
                        r=r, h=float(batch["h"][i]), alpha=float(batch["alpha"][i]),
                        l=float(batch["l_frac"][i]) * r,
                        gamma_t_db=float(batch["gamma_t_db"][i]),
                        labels=(("FWL", fwl[k]), ("PWL", pwl[k]))))
                    break
        if not any(quota.values()):
            break
    else:
        open_strata = sorted(":".join(s) for s, n in quota.items() if n)
        raise RuntimeError(f"strata not filled after {_MAX_BATCHES} batches: {open_strata}")

    lossless = _draw(rng, LOSSLESS_CONFIGS)
    for i in range(LOSSLESS_CONFIGS):
        r = float(lossless["r"][i])
        configs.append(Config(r=r, h=float(lossless["h"][i]), alpha=0.0,
                              l=float(lossless["l_frac"][i]) * r,
                              gamma_t_db=float(lossless["gamma_t_db"][i])))
    return tuple(configs)


# ---------------------------------------------------------------------------
# validate and figures: the inputs are the CLI's own, replayed here
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Draw:
    """One configuration of the reference link."""

    r: float
    h: float
    alpha: float
    l: float
    gamma_t_db: float


def validate_draws(seed: int) -> list[Draw]:
    """The six configurations `pinchpass validate --seed <seed>` checks.

    Mirrors the command's documented draw order so the traced run can
    replay the library calls the command makes.
    """
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(10.0, 40.0, 6), rng.uniform(3.0, 15.0, 6),
            rng.uniform(0.005, 0.05, 6), rng.uniform(0.1, 1.0, 6),
            rng.uniform(95.0, 120.0, 6)]
    return [Draw(r=float(r), h=float(h), alpha=float(a),
                         l=max(float(lf) * float(r), 0.01), gamma_t_db=float(g))
            for r, h, a, lf, g in zip(*cols)]


VALIDATE_NODES = 2000
VALIDATE_MC_SAMPLES = 1_000_000
FIGURE_IDS = (2, 3, 4, 5, 6, 7)
FIGURE_MC_SAMPLES = 100_000
# One worker: with two, the row pool and each row's chunk pool run up to four
# busy threads on a two-CPU machine, and the timing follows the scheduler and
# other tenants (quartile spread ~70 % over ten seeds).  The two-worker MC path
# is measured by the traced run's scaling probe instead.
FIGURE_WORKERS = 1

_ALL = ("FWNL", "FWL", "PWNL", "PWL")
_LOSSY = ("FWL", "PWL")
_RADII = [("r15", {"r": 15.0, "l": 7.5}), ("r25", {"r": 25.0, "l": 12.5})]

# The paper's figure presets as `pinchpass figure <id>` defines them:
# (metric, swept variable, start, stop, steps, scenarios, variants).
FIGURES = {
    2: ("outage", "gamma_t_db", 90.0, 125.0, 15, _ALL, _RADII),
    3: ("outage", "gamma_t_db", 90.0, 125.0, 15, _LOSSY,
        [(f"a{a}", {"alpha": a}) for a in (0.01, 0.02, 0.04)]),
    4: ("outage", "l", 1.0, 25.0, 25, ("PWL",),
        [(f"a{a}", {"alpha": a}) for a in (0.01, 0.02, 0.03, 0.04)]),
    5: ("rate", "gamma_t_db", 90.0, 125.0, 15, _ALL, _RADII),
    6: ("rate", "gamma_t_db", 90.0, 125.0, 15, _LOSSY,
        [(f"a{a}", {"alpha": a}) for a in (0.01, 0.02, 0.04)]),
    7: ("rate", "l", 1.0, 25.0, 25, ("PWL",),
        [(f"a{a}", {"alpha": a}) for a in (0.01, 0.02, 0.03, 0.04)]),
}


@dataclass(frozen=True)
class FigureRow:
    csv_name: str
    metric: str
    variable: str
    value: float
    scenario: str
    overrides: tuple[tuple[str, float], ...]
    row_index: int            # MC seed offset within its CSV


def figure_rows() -> list[FigureRow]:
    """Every row the six figure presets produce, in CSV order (620 rows)."""
    rows = []
    for fig, (metric, variable, start, stop, steps, scenarios, variants) in FIGURES.items():
        for suffix, overrides in variants:
            grid = np.linspace(start, stop, steps)
            for i, value in enumerate(grid):
                for j, scenario in enumerate(scenarios):
                    rows.append(FigureRow(f"figure{fig}_{suffix}.csv", metric, variable,
                                          float(value), scenario,
                                          tuple(sorted(overrides.items())),
                                          i * len(scenarios) + j))
    return rows
