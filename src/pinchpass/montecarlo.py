"""Seeded Monte-Carlo estimators for outage probability and average rate.

Sampling runs in fixed 65536-sample chunks.  Chunk ``j`` draws from its own
Philox stream (``Philox(key=seed, counter=[0, 0, j, 0])``, the state of
``Philox(key=seed).jumped(j)``) and the chunks' partial sums are reduced
exactly (an integer sum for outage, ``math.fsum`` for rate), so an estimate
is bit-identical for a given (seed, n_samples) no matter how many workers
execute the chunks or in which order they finish.

One chunk kernel serves every estimate.  ``estimate_many`` plans jobs
(scenario, metric, params) sharing one seed by radius, geometry (l, h,
sigma2) and job: a chunk's positions are drawn once on the unit disk and
scaled once per radius, the path loss sigma2*(y^2 + h^2 + dx^2) is written
once per geometry, and each job adds its guided gain
eta*p_t*exp(-alpha*(x_pa + l)), one divide and its reductions.  The clip at
l = r (the draws have |x| <= r, so dx is +0.0) and the exp at alpha = 0
(exp(-0.0) = 1.0) are exact identities and skipped, so every estimate is
bit-identical to its one-job call (``estimate_outage``, ``estimate_rate``).
Each CLI command runs all its (n_samples, seed) groups of jobs through one
``estimate_groups`` call; ``estimate_many`` is its one-group case.  The
draw is sine-free: y enters the SNR only as y^2, so each radius gets
x = rho*cos(t) and y^2 = (rho - x)(rho + x) for rho = r*sqrt(u), never y
itself (``_scale_draw``).  Each thread of a call owns one workspace of
chunk-wide rows (5 when every group has one radius, 7 when one has
several), freed on return; chunks draw, scale, evaluate the SNR and reduce
in its views and allocate no array.

An outage job whose SNR is saturated over the whole disk is decided before
planning and never drawn.  Every SNR is at most eta*p_t/(sigma2*h^2) (no
device is nearer the antenna than h, and the guide gains nothing) and at
least its minimum over the disk,
eta*p_t*exp(-alpha*(x_c + l))/(sigma2*(r^2 + h^2 - x_c^2)), reached on the
edge at the abscissa x_c in [0, l] where the guided log-SNR is least
(x_c = 0 at alpha = 0).  A gamma_th at or above the first bound gives mean
1.0, one below the second mean 0.0, both with stderr 0.0, bit for bit what
sampling returns; a relative margin of 1e-9 leaves thresholds near a bound
to sampling.  A call whose jobs are all decided draws nothing and allocates
no workspace; a rate job draws.

Only device positions are random.  The channel's free-space and in-guide
phase rotations have unit modulus and cancel in the SNR, so they are
deliberately not simulated; the link is deterministic line-of-sight with no
small-scale fading.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import sample_unit_disk
from .params import Scenario, SystemParams

CHUNK_SAMPLES = 1 << 16
MIN_SAMPLES = 1000   # fewest samples an estimate accepts


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and reproducibility token."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def snr_values(scenario: Scenario, p: SystemParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Received SNR (linear) for device positions (x, y) on the floor.

    One expression covers all four scenarios: the antenna clamps to the
    covered segment, the guided path runs from the feed at the -l end of
    the segment to the antenna, and lossless scenarios zero the attenuation
    exponent.  Full coverage uses l = r, and the antenna position is always
    clipped.
    """
    l = p.half_length(scenario)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    snr, dx, dist2 = (np.empty(x.shape) for _ in range(3))
    _path_loss(x, np.multiply(y, y, out=dist2), l, p.h, p.sigma2, True, dist2, snr, dx)
    return _guided_snr(snr, l, *_guide(scenario, p), dist2, snr)


def _guide(scenario: Scenario, p: SystemParams) -> tuple[float, float]:
    return p.alpha if scenario.lossy else 0.0, p.constants.eta * p.p_t


def _path_loss(x, y2, l, h, sigma2, clip, dist2, x_pa, dx) -> None:
    # sigma2*(y2 + h^2 + dx^2) into dist2, which may hold y2, x_pa = clip(x, -l, l)
    # and dx = x - x_pa; without clip the caller has |x| <= l, so dx^2 is +0.0
    # and adds nothing
    np.add(y2, h * h, out=dist2)
    if clip:
        np.subtract(x, np.clip(x, -l, l, out=x_pa), out=dx)
        dist2 += np.multiply(dx, dx, out=dx)
    dist2 *= sigma2


def _guided_snr(x_pa, l, alpha, gain, dist2, snr) -> np.ndarray:
    # gain*exp(-alpha*(x_pa + l)) / dist2 into snr, which may hold x_pa; as
    # exp(-0.0) = 1.0, it is gain / dist2 bit for bit at alpha = 0
    if alpha == 0.0:
        return np.divide(gain, dist2, out=snr)
    np.add(x_pa, l, out=snr)
    snr *= -alpha
    np.exp(snr, out=snr)
    snr *= gain
    snr /= dist2
    return snr


def _finish(metric: str, partials: list, n_samples: int, seed: int) -> McEstimate:
    # combine the per-chunk partials of one job; both sums are exact, so the
    # order the chunks finished in does not matter
    if metric == "outage":
        mean = sum(partials) / n_samples
        stderr = math.sqrt(mean * (1.0 - mean) / n_samples)
    else:
        s1, s2 = (math.fsum(column) for column in zip(*partials))
        mean = s1 / n_samples
        var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


# An outage job is decided without drawing when an SNR bound over the whole
# disk lies on one side of gamma_th; the outage counts SNR <= gamma_th.  The
# chunk kernel computes each SNR as (gain*e) / dist2, with
# e = exp(-alpha*(x_pa + l)), x_pa = clip(x, -l, l), dx = x - x_pa and
# dist2 = ((y2 + h*h) + dx*dx) * sigma2, evaluated in that order, where the
# draw gives x = rho*cos(t) and y2 = (rho - x)*(rho + x) for rho = r*sqrt(u).
# - Upper: x_pa >= -l, so x_pa + l >= 0 and e <= 1.  |x| <= rho, as
#   |cos(t)| <= 1 and rounding is monotone, so rho - x, rho + x and y2 are
#   >= 0, and dx*dx >= 0, so dist2 >= (h*h)*sigma2 = near.  Every SNR is at
#   most gain/near: at or below gamma_th, every position is in outage.
# - Lower: at a given x the SNR falls as y2 grows, and a drawn position has
#   y2 <= r^2 - x^2 (x^2 + y2 = rho^2 <= r^2), so the weakest lie on the
#   edge.  There, with c = r^2 + h^2, beyond +-l e is fixed and
#   dist2/sigma2 = c - 2|x|l + l^2 grows toward +-l, so the SNR falls
#   toward +-l.  Under the guide the log-SNR -alpha*(x + l) - log(c - x^2)
#   is convex, least where -alpha + 2x/(c - x^2) = 0, at
#   x* = c/(u + sqrt(u^2 + c)) for u = 1/alpha (x* = 0 at alpha = 0).  So
#   with x_c = min(x*, l) and far = ((r - x_c)*(r + x_c) + h*h)*sigma2,
#   the cancellation-free form of y2's, every SNR is at least
#   gain*exp(-alpha*(x_c + l))/far: above gamma_th, no position is in outage.
# The lower bound holds to a few ulps only (rho, the two factors of y2 and
# their product round, and so does exp), and the upper one relies on exp(t) <= 1
# for t <= 0, which numpy's SIMD exp keeps to within its ulps.  A relative
# margin far above those ulps keeps every job near a bound sampled.  A NaN
# or zero bound decides nothing.  The decided mean (n/n or 0/n) and stderr
# (sqrt(m(1 - m)/n) = 0.0) are those sampling returns, bit for bit.  The
# bounds read the SNR expression's own inputs (_guide's gain, h, sigma2, r
# and l), not the closed forms' constants, so the oracle stays independent.
_BOUND_MARGIN = 1e-9


def _saturated(scenario: Scenario, p: SystemParams) -> float | None:
    # the outage estimate, 1.0 or 0.0, when the SNR bound above decides it
    alpha, gain = _guide(scenario, p)
    near = p.h * p.h * p.sigma2
    if near > 0.0 and gain / near * (1.0 + _BOUND_MARGIN) <= p.gamma_th:
        return 1.0
    # x*, scaled by alpha up to alpha*sqrt(c) = 1 and by u/sqrt(c) beyond it,
    # so that neither form overflows or divides by zero for any alpha >= 0
    l, s = p.half_length(scenario), math.hypot(p.r, p.h)
    if alpha <= 1.0 / s:
        x = alpha * s * s / (1.0 + math.hypot(1.0, alpha * s))
    else:
        v = 1.0 / alpha / s
        x = s / (v + math.hypot(v, 1.0))
    x = min(x, l)
    far = ((p.r - x) * (p.r + x) + p.h * p.h) * p.sigma2
    weakest = gain * math.exp(-alpha * (x + l))
    if far > 0.0 and weakest / far * (1.0 - _BOUND_MARGIN) > p.gamma_th:
        return 0.0
    return None


def _reduce(sums: dict, scenario: Scenario, p: SystemParams, metrics, snr, scratch) -> None:
    # appends one chunk's partial sums to each job's list in sums; scratch is
    # a spent row as long as the SNR
    if "outage" in metrics:
        below = np.less_equal(snr, p.gamma_th, out=scratch.view(bool)[:snr.size])
        sums[scenario, "outage", p].append(int(np.count_nonzero(below)))
    if "rate" in metrics:
        # 1 + snr in place: the outage count above has read the SNR
        np.add(snr, 1.0, out=snr)
        np.log2(snr, out=snr)
        squares = np.multiply(snr, snr, out=scratch)
        sums[scenario, "rate", p].append((float(np.sum(snr)), float(np.sum(squares))))


def _plan(jobs, n_samples: int, seed: int) -> tuple[list, dict, dict, dict]:
    # the jobs, the estimates the SNR bound decides, a list for the partial
    # sums of each other job and their plan: radius -> geometry (l, h, sigma2)
    # -> (scenario, p) -> (alpha, eta*p_t, metrics).  Checked here, not by the
    # generator: a decided job builds none
    if not isinstance(n_samples, (int, np.integer)) or n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be an integer of at least {MIN_SAMPLES}, "
                         f"got {n_samples!r}")
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    jobs, decided, sums, plan = list(jobs), {}, {}, {}
    for scenario, metric, p in jobs:
        if metric not in ("outage", "rate"):
            raise ValueError(f"metric must be 'outage' or 'rate', got {metric!r}")
        mean = _saturated(scenario, p) if metric == "outage" else None
        if mean is not None:
            decided[scenario, metric, p] = McEstimate(mean, 0.0, n_samples, seed)
            continue
        group = plan.setdefault(p.r, {}).setdefault((p.half_length(scenario), p.h, p.sigma2), {})
        group.setdefault((scenario, p), (*_guide(scenario, p), set()))[2].add(metric)
        sums.setdefault((scenario, metric, p), [])
    return jobs, decided, sums, plan


def _scale_draw(root_u, cos_t, r, rho, x, y2) -> None:
    # x = rho*cos(t) and y^2 = (rho - x)(rho + x) for rho = r*sqrt(u), into
    # the rows rho, x and y2; rho may be the sqrt(u) row and x the cos(t)
    # row, which spends the draw.  y^2 is the cancellation-free difference of
    # squares geometry.seg takes: |fl(rho*cos(t))| <= rho, so neither factor
    # is negative.  rho ends up holding rho + x
    np.multiply(root_u, r, out=rho)
    np.multiply(rho, cos_t, out=x)
    np.subtract(rho, x, out=y2)
    rho += x
    y2 *= rho


def _draw_chunk(seed, sums, plan, index, count, workspace) -> None:
    # appends the plan's partial sums over chunk index of the seed to sums.
    # The draw (sqrt(u), cos(t), t) fills rows 0-2.  Each radius takes five
    # rows in turn, rho, x, y^2, scratch and the path loss: rows 2-6 for
    # every radius but the last, whose rho is the spent angle row, and rows
    # 0-4 for the last, which spends the draw.  The spent rho row holds the
    # radius' SNR
    workspace = workspace[:, :count]
    rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, index, 0]))
    root_u, cos_t, _ = sample_unit_disk(rng, count, out=workspace[:3])
    last = len(plan) - 1
    for i, (r, geometries) in enumerate(plan.items()):
        snr_row, x, y2, scratch, dist2 = workspace[0 if i == last else 2:][:5]
        _scale_draw(root_u, cos_t, r, snr_row, x, y2)
        for (l, h, sigma2), evaluations in geometries.items():
            # the draws have |x| <= r, so the clip is the identity at l = r;
            # below, the path loss leaves x_pa in the SNR row for the first job
            _path_loss(x, y2, l, h, sigma2, l < r, dist2, snr_row, scratch)
            for k, ((scenario, p), (alpha, gain, metrics)) in enumerate(evaluations.items()):
                if l < r and k and alpha:
                    np.clip(x, -l, l, out=snr_row)
                snr = _guided_snr(snr_row if l < r else x, l, alpha, gain, dist2, snr_row)
                _reduce(sums, scenario, p, metrics, snr, scratch)


def estimate_groups(groups, workers: int = 1) -> dict[tuple[int, int], list[McEstimate]]:
    """``estimate_many`` for every ``(n_samples, seed)`` key of ``groups``.

    ``groups`` maps each key to its ``(scenario, metric, p)`` jobs.  All are
    checked and planned before the first draw; then the chunks of every
    group run on the calling thread (``workers`` <= 1) or on one pool of
    ``workers`` threads.  Returns each key's estimates in job order.
    """
    plans = {key: _plan(group, *key) for key, group in groups.items()}
    tasks = [(key[1], sums, plan, index, min(CHUNK_SAMPLES, key[0] - start))
             for key, (*_, sums, plan) in plans.items() if plan
             for index, start in enumerate(range(0, key[0], CHUNK_SAMPLES))]
    rows = 7 if any(len(plan) > 1 for *_, plan in plans.values()) else 5
    shape = (rows, max((task[-1] for task in tasks), default=0))
    # threads claim tasks in turn into a workspace of their own (count's next
    # and list.append are atomic); a pool thread, even one, takes a malloc arena
    claim = itertools.count().__next__

    def run(_=None):
        workspace = np.empty(shape)
        while (i := claim()) < len(tasks):
            _draw_chunk(*tasks[i], workspace)

    workers = min(workers, len(tasks))
    if workers <= 1:
        run()
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))
    return {key: [decided.get(job) or _finish(job[1], sums[job], *key) for job in jobs]
            for key, (jobs, decided, sums, _) in plans.items()}


def estimate_many(jobs, n_samples: int, seed: int, workers: int = 1) -> list[McEstimate]:
    """Estimates for every ``(scenario, metric, p)`` job from one set of draws.

    ``metric`` is ``"outage"`` (fraction of positions with SNR <= gamma_th,
    binomial standard error sqrt(m(1-m)/n)) or ``"rate"`` (sample mean of
    log2(1 + SNR), standard error the sample standard deviation over
    sqrt(n)).  Results come back in job order; each equals, bit for bit, the
    estimate the same job gets alone, for any ``workers``.  ``n_samples``
    must be an integer of at least ``MIN_SAMPLES`` and ``seed`` an integer
    in [0, 2**128), or ValueError names the argument.
    """
    return estimate_groups({(n_samples, seed): jobs}, workers)[n_samples, seed]


def estimate_outage(scenario: Scenario, p: SystemParams, n_samples: int,
                    seed: int, workers: int = 1) -> McEstimate:
    """Fraction of uniform device positions with SNR <= gamma_th.

    Standard error is the binomial sqrt(m(1-m)/n).  Deterministic per
    (seed, n_samples, scenario, params), independent of ``workers``.  When
    the SNR bound over the disk lies on one side of gamma_th, the estimate
    (1.0 or 0.0, stderr 0.0) is decided without drawing and equals the
    sampled one bit for bit.
    """
    return estimate_many([(scenario, "outage", p)], n_samples, seed, workers)[0]


def estimate_rate(scenario: Scenario, p: SystemParams, n_samples: int,
                  seed: int, workers: int = 1) -> McEstimate:
    """Sample mean of log2(1 + SNR) over uniform device positions.

    Standard error is the sample standard deviation over sqrt(n).
    Deterministic per (seed, n_samples, scenario, params), independent of
    ``workers``.
    """
    return estimate_many([(scenario, "rate", p)], n_samples, seed, workers)[0]
