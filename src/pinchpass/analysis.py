"""Closed-form outage probability and average rate for the four scenarios.

The antenna clamps to a centered waveguide segment of half-length l; full
coverage is the same geometry at l = r.  A scenario is its half-length and
attenuation (alpha, 0 for a lossless guide): :func:`evaluate` is the one
dispatch from (scenario, metric) to an evaluator of (l, alpha):

* lossless outage is 1 - P(D <= sqrt(A)), D the horizontal distance to
  the segment (|y| at full coverage): the covered area is a sum of chord
  strips ``geometry.seg``, the primitive of the lossy chord strip too;
* lossy outage is ``_outage_lossy``: its crossing classifier names the
  root arrangement of the threshold/clearance curves, and one composed
  closed form evaluates every arrangement;
* the lossless full-coverage rate is exact; every other rate is one
  Gauss-Chebyshev kernel over x of the analytic chord integral of the
  log-SNR (two segments lossless, three lossy), on exactly mirrored nodes
  cached per order.  Mirrored nodes share their chord geometry, so a lossy
  covered span runs on the nonnegative nodes with two gains each, and the
  far and near outer sides as one side with two gains, in the same pass.

The search for the half-length that optimizes either metric calls the same
evaluators at each half-length; its rate grid is one kernel call per block
of half-lengths, equal bit for bit to the rates ``evaluate`` gives at those
half-lengths.  A rate optimum is refined by successive parabolic
interpolation, an outage optimum by golden section.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._outage_lossy import lossy_outage
from .geometry import seg
from .params import DEFAULT_QUADRATURE_NODES, Scenario, SystemParams

METRICS = ("outage", "rate")


class MetricResult(NamedTuple):
    """One evaluated performance metric.

    ``value`` is a probability for outage metrics and bits/s/Hz for rate
    metrics; ``quadrature_nodes`` is the node count of a quadrature-based
    rate.  ``case_id`` names the branch of an outage's piecewise closed
    form: how the disk clips the covered stadium for a lossless guide
    ("stadium", "stadium-caps", "band"; "interior" at full coverage), the
    root arrangement of ``classify_crossings`` for a lossy one, and
    "all-outage" or "no-outage" where the outage saturates.
    """

    value: float
    scenario: Scenario
    case_id: str | None = None
    quadrature_nodes: int | None = None


def _check_nodes(nodes: int) -> None:
    if not isinstance(nodes, (int, np.integer)):
        raise ValueError(f"nodes must be an integer, got {nodes!r}")
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes!r}")


def evaluate(scenario: Scenario, metric: str, p: SystemParams,
             nodes: int = DEFAULT_QUADRATURE_NODES) -> MetricResult:
    """Closed-form ``metric`` ("outage" or "rate") of ``scenario`` at ``p``.

    A scenario is its half-length l (r at full coverage) and attenuation
    (``p.alpha``, 0 for a lossless guide), and those two pick the closed
    form.  ``nodes`` is the Gauss-Chebyshev order of the quadrature rates;
    the outages and the lossless full-coverage rate ignore it, and every
    rate but FWNL's rejects fewer than 2.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be 'outage' or 'rate', got {metric!r}")
    l = p.half_length(scenario)
    alpha = p.alpha if scenario.lossy else 0.0
    if metric == "outage":
        value, case = _outage(p, l, alpha, scenario.full_coverage)
        return MetricResult(value, scenario, case_id=case)
    if scenario is not Scenario.FWNL:
        _check_nodes(nodes)
    if alpha == 0.0 and scenario.full_coverage:
        return MetricResult(_rate_full_lossless(p), scenario)
    return MetricResult(float(_rate_chord(p, l, nodes, alpha)), scenario,
                        quadrature_nodes=nodes)


def _outage(p: SystemParams, l: float, alpha: float,
            full_coverage: bool) -> tuple[float, str]:
    # (outage, case id) of a guide of half-length l: the lossless closed
    # form at alpha = 0, else the lossy one (whose attenuation is p.alpha)
    if alpha == 0.0:
        return _outage_lossless(p, l, full_coverage)
    return lossy_outage(p, l)


# ---------------------------------------------------------------------------
# one function per scenario and metric, each an evaluate call
# ---------------------------------------------------------------------------


def outage_fwnl(p: SystemParams) -> MetricResult:
    """Outage probability, full coverage, lossless guide."""
    return evaluate(Scenario.FWNL, "outage", p)


def rate_fwnl(p: SystemParams) -> MetricResult:
    """Average achievable rate, full coverage, lossless guide (exact)."""
    return evaluate(Scenario.FWNL, "rate", p)


def outage_pwnl(p: SystemParams) -> MetricResult:
    """Outage probability, partial coverage, lossless guide."""
    return evaluate(Scenario.PWNL, "outage", p)


def rate_pwnl(p: SystemParams, nodes: int = DEFAULT_QUADRATURE_NODES) -> MetricResult:
    """Average achievable rate, partial coverage, lossless guide (quadrature)."""
    return evaluate(Scenario.PWNL, "rate", p, nodes)


def outage_fwl(p: SystemParams) -> MetricResult:
    """Outage probability, full coverage, lossy guide."""
    return evaluate(Scenario.FWL, "outage", p)


def rate_fwl(p: SystemParams, nodes: int = DEFAULT_QUADRATURE_NODES) -> MetricResult:
    """Average achievable rate, full coverage, lossy guide (quadrature)."""
    return evaluate(Scenario.FWL, "rate", p, nodes)


def outage_pwl(p: SystemParams) -> MetricResult:
    """Outage probability, partial coverage, lossy guide."""
    return evaluate(Scenario.PWL, "outage", p)


def rate_pwl(p: SystemParams, nodes: int = DEFAULT_QUADRATURE_NODES) -> MetricResult:
    """Average achievable rate, partial coverage, lossy guide (quadrature)."""
    return evaluate(Scenario.PWL, "rate", p, nodes)


# ---------------------------------------------------------------------------
# closed forms of a half-length l
# ---------------------------------------------------------------------------


def _outage_lossless(p: SystemParams, l: float, full_coverage: bool) -> tuple[float, str]:
    # Outage holds where D^2 >= A, D the horizontal distance to the segment
    # [-l, l], so the value is 1 - P(D <= q), q = sqrt(A), saturated at
    # A <= 0 and A >= r^2.  {D <= q} is a stadium (a 2l x 2q rectangle
    # capped by half-disks of radius q); the case id names how the disk
    # clips it: not at all, at the caps (beyond x*, where a cap circle meets
    # the disk edge, the chord of the disk bounds it) or to a band |y| <= q
    # (every chord beyond x0 = sqrt(r^2 - q^2) whole).  Full coverage is the
    # band at l = r, case id "interior".  Returns (outage, case id).
    A = p.constants.A
    r = p.r
    if A <= 0.0:
        return 1.0, "all-outage"
    if A >= r * r:
        return 0.0, "no-outage"
    q = math.sqrt(A)
    if q < r - l:
        case, covered = "stadium", 4.0 * q * l + math.pi * q * q
    elif q * q < r * r - l * l:
        # l <= x* <= r and x* - l <= q in exact arithmetic, since q >= r - l;
        # near that seam the rounding of q moves x* by ~ulp(r) r / l
        x_star = min(((r - q) * (r + q) + l * l) / (2.0 * l), r)
        case = "stadium-caps"
        covered = 4.0 * l * q + 2.0 * seg(q, 0.0, min(x_star - l, q)) + 2.0 * seg(r, x_star, r)
    else:
        x0 = math.sqrt((r - q) * (r + q))
        case = "interior" if full_coverage else "band"
        covered = 4.0 * x0 * q + 2.0 * seg(r, x0, r)
    # just below A = r^2 the covered fraction rounds up to 1 + 2^-52 at most
    return max(1.0 - covered / (math.pi * r * r), 0.0), case


def _rate_full_lossless(p: SystemParams) -> float:
    # the exact rate of a lossless guide at l = r (FWNL, and FWL at alpha = 0)
    d = p.constants
    G, L = d.Gamma, d.Lambda
    return (math.log1p(d.eta * p.p_t / (p.sigma2 * p.h * p.h))
            + 2.0 * (math.log((1.0 + G) / (1.0 + L))
                     + 0.5 * (1.0 - G) / (1.0 + G)
                     - 0.5 * (1.0 - L) / (1.0 + L))) / math.log(2.0)


def _chord_terms(rho2: np.ndarray, base2, gains):
    # the chord integrals of ln(1 + gain/(y^2 + base2)) over 0 <= y <= rho,
    # rho^2 = rho2, halved, one per node and gain:
    #   (rho/2) ln(1 + gain/(rho^2+base2)) + L atan(rho/L) - b atan(rho/b),
    # L = sqrt(base2 + gain), b = sqrt(base2), each node rounded as the
    # whole integral would be, but for the exact factor 2.  The nodes run
    # along the last axis and the gains of a node (a float, or G of them)
    # along the first, so they share rho, rho^2 + base2 and the gain-free
    # b atan(rho/b), which each gain's term subtracts before the caller adds
    # the gains.  Every pass after the first of each array writes in place;
    # rho2 is spent.
    rho = np.sqrt(rho2)
    s = np.add(rho2, base2, out=rho2)
    lift = np.sqrt(np.add(gains, base2))
    terms = np.divide(gains, s)
    np.log1p(terms, out=terms)
    np.multiply(terms, np.multiply(rho, 0.5), out=terms)
    arcs = np.divide(rho, lift)
    np.arctan(arcs, out=arcs)
    np.multiply(arcs, lift, out=arcs)
    np.add(terms, arcs, out=terms)
    base = np.sqrt(base2) if isinstance(base2, np.ndarray) else math.sqrt(base2)
    free = np.divide(rho, base, out=s)
    np.arctan(free, out=free)
    return np.subtract(terms, np.multiply(free, base, out=free), out=terms)


@functools.lru_cache(maxsize=32)
def _chebyshev_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the Gauss-Chebyshev (first kind) nodes cos((2k-1)pi/2n) and their sines
    # sqrt(1 - t^2) without cancellation, built once per order, read-only;
    # the nonnegative half is computed and mirrored, so t_{n+1-k} = -t_k
    # exactly and an odd order's center node is 0
    angles = (2.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) * math.pi / (2.0 * n)
    nodes, sines = np.cos(angles), np.sin(angles)
    if n % 2:
        nodes[-1], sines[-1] = 0.0, 1.0
    nodes = np.concatenate([nodes, -nodes[:n // 2][::-1]])
    sines = np.concatenate([sines, sines[:n // 2][::-1]])
    nodes.flags.writeable = sines.flags.writeable = False
    return nodes, sines


@functools.lru_cache(maxsize=32)
def _mirror_pairs(n: int) -> tuple[np.ndarray, ...]:
    # the order-n rule as mirrored pairs +-t, read-only: the nonnegative
    # nodes t (m = ceil(n/2) of them), the pair weights (an odd order's
    # center node 0 is counted twice, so it carries half weight), and the
    # feed distances over l of the two gains of each node: [1 - t, 1 + t]
    # at the pairs (2 x m), then those followed by [2, 0] at the n outer
    # nodes, far side and near side (2 x (m + n)); each is contiguous, as
    # numpy reads a sliced operand at twice the cost
    nodes, sines = _chebyshev_nodes(n)
    m = (n + 1) // 2
    t, w = nodes[:m], sines[:m].copy()
    if n % 2:
        w[-1] = 0.5
    stacked = np.zeros((2, m + n))
    stacked[0, :m], stacked[1, :m], stacked[0, m:] = 1.0 - t, 1.0 + t, 2.0
    arrays = (t, w, stacked[:, :m].copy(), stacked)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _rate_chord(p: SystemParams, l, nodes: int, alpha: float):
    # the Gauss-Chebyshev chord quadrature of the PWNL and PWL rates (FWL at
    # l = r) under attenuation alpha, at a float l or at a 1-D array of
    # half-lengths.  The covered span runs at gain e exp(-alpha (x + l)); a
    # node x and its mirror -x share their geometry and differ only in gain,
    # so the rule runs on the nonnegative nodes x = l t with the gains
    # e exp(-alpha l (1 -+ t)), each from its own exp (e exp(-alpha l)
    # underflows first).  Over the symmetric nodes the far side (beyond +l)
    # mirrors the near side (before -l) the same way: gain e exp(-2 alpha l)
    # far, e near (feed level).  A lossless covered span is even in x, so
    # its rule spends the nodes on [0, l], and far = near: one gain at twice
    # the weight.  One pass takes the covered nodes, then the outer ones
    # (none at a float l = r; zero width at l = r in an array), along the
    # last axis; half-lengths run down the axis before it, the two lossy
    # gains down the first.
    r, h2 = p.r, p.h * p.h
    e = p.constants.eta * p.p_t / p.sigma2
    t, sines = _chebyshev_nodes(nodes)
    batch = isinstance(l, np.ndarray)
    lc = l[:, None] if batch else l
    if alpha == 0.0:
        ct, cw = t, sines
    else:
        ct, cw, cover, stacked = _mirror_pairs(nodes)
    m = ct.size
    x = np.empty((l.size, m + nodes) if batch else m + nodes if l < r else m)
    outer, base2 = x.shape[-1] > m, h2
    if alpha == 0.0:
        np.add(np.multiply(t, 0.5 * lc, out=x[..., :m]), 0.5 * lc, out=x[..., :m])
    else:
        np.multiply(ct, lc, out=x[..., :m])
    if outer:
        base2 = np.empty(x.shape)
        base2[..., :m] = h2
        x2 = np.add(np.multiply(t, 0.5 * (r - lc), out=x[..., m:]), 0.5 * (r + lc), out=x[..., m:])
        gap = np.subtract(x2, lc, out=base2[..., m:])
        np.add(np.multiply(gap, gap, out=gap), h2, out=gap)
        np.minimum(x2, r, out=x2)           # so rho^2 >= 0 where x2 rounds past r
    rho2 = np.subtract(r * r, np.multiply(x, x, out=x), out=x)
    if alpha == 0.0:
        gains = e
    else:
        feed = stacked if outer else cover
        gains = np.multiply(feed[:, None] if batch else feed, -alpha * lc)
        np.multiply(np.exp(gains, out=gains), e, out=gains)
    terms = _chord_terms(rho2, base2, gains)
    # one dot product per row, so a half-length in a block sums as it does alone
    covered = np.vecdot(terms[..., :m], cw)
    total = 2.0 * l * (covered if alpha == 0.0 else covered[0] + covered[1])
    if outer:
        sides = np.vecdot(terms[..., m:], sines)
        total = total + (r - l) * (2.0 * sides if alpha == 0.0 else sides[0] + sides[1])
    # the halved chord integrals take the factor 2 into the scale
    return total / (0.5 * nodes * r * r * math.log(2.0))


# ---------------------------------------------------------------------------
# optimal half-length search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LengthSearchResult:
    """Grid curve and extremum of a metric over the waveguide half-length."""

    best_l: float
    best_value: float
    grid: tuple[tuple[float, float], ...]
    metric: str
    grid_end: str | None


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - ratio * (hi - lo)
    x2 = lo + ratio * (hi - lo)
    f1, f2 = fun(x1), fun(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = fun(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = fun(x2)
    return 0.5 * (lo + hi)


def _parabolic_refine(fun, a: float, b: float, c: float,
                      fa: float, fb: float, fc: float, tol: float) -> tuple[float, float]:
    # successive parabolic interpolation of a minimum bracketed by
    # a < b < c, fb <= fa and fb <= fc: each step evaluates the vertex of the
    # parabola through the three points, which lies in [a, c], and keeps a
    # bracket around the lowest point found; it stops once the vertex moves
    # b by less than tol, or after 8 evaluations.  Returns (b, fb), b moved
    # only by a strictly lower value.
    for _ in range(8):
        p = (b - a) * (fb - fc)
        q = (b - c) * (fb - fa)
        if p == q:
            break
        x = b - 0.5 * ((b - a) * p - (b - c) * q) / (p - q)
        if not abs(x - b) >= tol:       # a short step, or none (nan)
            break
        fx = fun(x)
        if fx < fb:
            a, fa, c, fc = (a, fa, b, fb) if x < b else (b, fb, c, fc)
            b, fb = x, fx
        elif x < b:
            a, fa = x, fx
        else:
            c, fc = x, fx
    return b, fb


def optimal_length_search(p: SystemParams, metric: str = "rate",
                          grid_spec: tuple[float | None, float | None, int | None] | None = None,
                          nodes: int = DEFAULT_QUADRATURE_NODES) -> LengthSearchResult:
    """Search the half-length grid for the best metric value.

    Evaluates the closed-form PWL metric (outage minimized, rate maximized;
    PWNL at alpha = 0) on an inclusive linspace grid (start, stop, steps)
    over (0, r], then sharpens an interior grid optimum between its
    neighbors.  The rate curve is smooth there, so successive parabolic
    interpolation from the three grid points refines it until a step moves
    less than r/250000, and only a higher rate replaces the grid optimum.
    The outage curve has kinks, so golden-section search refines it down to
    r/25000; it moves left on a tie and its result wins a tie with the grid
    optimum, so a flat optimum reports its smallest half-length: at
    alpha = 0 the outage is flat beyond x0 = sqrt(r^2 - A), and the search
    returns x0 to r/25000.  At alpha = 0 the rate cannot fall as l grows,
    so the rate search returns the grid stop.  An optimum at a grid end is
    not refined, and the result's ``grid_end`` names that end ("start" or
    "stop", else None).  Every length is in units of r, so scaling r, h
    and the grid by a power of two k, alpha by 1/k and p_t by k^2 scales
    each length by k and keeps each value.  A ``None`` grid_spec, or entry
    of it, takes the default (r/50, r, 50); a grid step below r/2500 is
    rejected.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be 'outage' or 'rate', got {metric!r}")
    start, stop, steps = (default if value is None else value for value, default
                          in zip(grid_spec or (None,) * 3, (p.r / 50.0, p.r, 50)))
    if not 0.0 < start <= p.r:
        raise ValueError(f"half-length grid start {start!r} outside (0, r] = (0, {p.r!r}]")
    if not start <= stop <= p.r:
        raise ValueError(f"half-length grid stop {stop!r} outside [start, r] = "
                         f"[{start!r}, {p.r!r}]")
    if not isinstance(steps, (int, np.integer)):
        raise ValueError(f"half-length grid steps must be an integer, got {steps!r}")
    if steps < 1:
        raise ValueError(f"half-length grid steps must be at least 1, got {steps!r}")
    if steps > 1 and (step := (stop - start) / (steps - 1)) < p.r / 2500.0:
        raise ValueError(f"half-length grid step {step!r} below r/2500 = {p.r / 2500.0!r}")

    grid = np.linspace(start, stop, steps)
    if metric == "rate":
        # evaluate's PWL (PWNL at alpha = 0) rate kernel, one call per grid
        # block of at most 3,000 // nodes half-lengths: a call's arrays then
        # stay small enough for the allocator to reuse; at 200 nodes blocks
        # of 20 refaulted freed pages and took 1.3x as long as blocks of 15
        _check_nodes(nodes)
        value_at = lambda l: float(_rate_chord(p, l, nodes, p.alpha))
        block = max(1, 3_000 // nodes)
        values = np.concatenate([_rate_chord(p, grid[i:i + block], nodes, p.alpha)
                                 for i in range(0, steps, block)]).tolist()
    else:
        # evaluate's PWL (PWNL at alpha = 0) outage; 0 < start <= stop <= r
        # keeps every grid and golden-section point a valid half-length
        value_at = lambda l: _outage(p, l, p.alpha, False)[0]
        values = [value_at(float(l)) for l in grid]
    # at alpha = 0 no position's SNR falls as l grows, so no rate can: the
    # stop is best, whatever the quadrature's error near l = r ranks first
    if metric == "rate" and p.alpha == 0.0:
        best_idx = steps - 1
    else:
        best_idx = int(np.argmin(values) if metric == "outage" else np.argmax(values))
    best_l = float(grid[best_idx])
    best_value = values[best_idx]

    # refine only interior optima; a boundary optimum cannot be bracketed and
    # the curve is noise-flat at a degenerate end
    if 0 < best_idx < steps - 1:
        # the grid step is at least r/2500, so the bracket is wider than tol
        lo = float(grid[best_idx - 1])
        hi = float(grid[best_idx + 1])
        if metric == "rate":
            # the grid already holds the bracket's three values
            best_l, cost = _parabolic_refine(lambda l: -value_at(l), lo, best_l, hi,
                                             -values[best_idx - 1], -best_value,
                                             -values[best_idx + 1], tol=p.r / 250000.0)
            best_value = -cost
        else:
            candidate = _golden_section(value_at, lo, hi, tol=p.r / 25000.0)
            cand_value = value_at(candidate)
            if cand_value <= best_value:
                best_l, best_value = candidate, cand_value

    return LengthSearchResult(best_l=best_l, best_value=best_value,
                              grid=tuple(zip(map(float, grid), values)), metric=metric,
                              grid_end={steps - 1: "stop", 0: "start"}.get(best_idx))
