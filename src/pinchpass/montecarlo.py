"""Seeded Monte-Carlo estimators for outage probability and average rate.

Sampling runs in fixed 65536-sample chunks.  Chunk ``j`` draws from its own
counter-derived Philox stream (``Philox(key=seed).jumped(j)``) and partial
sums are reduced in chunk order (an integer sum for outage, exact
``math.fsum`` for rate), so an estimate is bit-identical for a given
(seed, n_samples) no matter how many workers execute the chunks or in which
order they finish.

One chunk kernel, ``estimate_many``, serves every estimate.  It takes a list
of (scenario, metric, params) jobs sharing one seed, draws each chunk's
positions once on the unit disk, scales them once per distinct radius,
evaluates the SNR once per distinct (scenario, params) and reduces only the
metrics asked for.  Positions, SNR and reductions are exactly those of a
single-job call, so every estimate it returns is bit-identical to the one
``estimate_outage``/``estimate_rate`` (one-job calls of the same kernel)
give alone.  The CLI uses this to share a seed's draw across the variants
of a figure (radii, attenuations) and the eight estimates of ``validate``.
Each call, and each worker thread in it, owns one workspace of chunk-wide
rows (5 for one radius, 8 for several), freed on return; chunks draw,
scale, evaluate the SNR and reduce in its views and allocate no array.

Only device positions are random.  The channel's free-space and in-guide
phase rotations have unit modulus and cancel in the SNR, so they are
deliberately not simulated; the link is deterministic line-of-sight with no
small-scale fading.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import sample_unit_disk, scale_unit_disk
from .params import Scenario, SystemParams, derive_constants

CHUNK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and reproducibility token."""

    mean: float
    stderr: float
    n_samples: int
    seed: int


def snr_values(scenario: Scenario, p: SystemParams, x: np.ndarray, y: np.ndarray,
               out=None) -> np.ndarray:
    """Received SNR (linear) for device positions (x, y) on the floor.

    One expression covers all four scenarios: the antenna clamps to the
    covered segment, the guided path runs from the feed at the -l end of
    the segment to the antenna, and lossless scenarios zero the attenuation
    exponent.  Full coverage uses l = r.  The SNR is written into the first
    of ``out``, three arrays of the positions' shape whose other two are
    scratch, or into fresh ones when it is omitted.
    """
    l = p.half_length(scenario)
    alpha = p.alpha if scenario.lossy else 0.0
    eta = derive_constants(p).eta
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    snr, dx, dist2 = (np.empty(x.shape) for _ in range(3)) if out is None else out
    # eta*p_t*exp(-alpha*(x_pa + l)) / (sigma2*(y^2 + h^2 + dx^2)), operation
    # by operation; snr holds the antenna position x_pa until the exp
    np.clip(x, -l, l, out=snr)
    np.subtract(x, snr, out=dx)
    dx *= dx
    snr += l
    snr *= -alpha
    np.exp(snr, out=snr)
    snr *= eta * p.p_t
    np.multiply(y, y, out=dist2)
    dist2 += p.h * p.h
    dist2 += dx
    dist2 *= p.sigma2
    snr /= dist2
    return snr


def _run_chunks(worker, n_samples: int, workers: int, rows: int):
    # thread k runs chunks j = k, k + workers, ... in its own workspace
    full, rem = divmod(n_samples, CHUNK_SAMPLES)
    jobs = list(enumerate([CHUNK_SAMPLES] * full + [rem] * (rem > 0)))
    workers = min(workers, len(jobs))

    def run(share):
        workspace = np.empty((rows, jobs[0][1]))
        return [worker(j, c, workspace[:, :c]) for j, c in share]

    if workers <= 1:
        return run(jobs)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        shares = list(pool.map(run, [jobs[k::workers] for k in range(workers)]))
    return [shares[j % workers][j // workers] for j, _ in jobs]


def _finish(metric: str, partials: list, n_samples: int, seed: int) -> McEstimate:
    # combine the per-chunk partials of one job, always in chunk order
    if metric == "outage":
        mean = sum(partials) / n_samples
        stderr = math.sqrt(mean * (1.0 - mean) / n_samples)
    else:
        s1 = math.fsum(part[0] for part in partials)
        s2 = math.fsum(part[1] for part in partials)
        mean = s1 / n_samples
        var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


def _reduce(partial: dict, scenario: Scenario, p: SystemParams, metrics, snr, scratch) -> None:
    # one chunk's partial sums; scratch is a spent row as long as the SNR
    if "outage" in metrics:
        below = np.less_equal(snr, p.gamma_th, out=scratch.view(bool)[:snr.size])
        partial[scenario, "outage", p] = int(np.count_nonzero(below))
    if "rate" in metrics:
        # 1 + snr in place: the outage count above has read the SNR
        np.add(snr, 1.0, out=snr)
        np.log2(snr, out=snr)
        squares = np.multiply(snr, snr, out=scratch)
        partial[scenario, "rate", p] = (float(np.sum(snr)), float(np.sum(squares)))


def estimate_many(jobs, n_samples: int, seed: int, workers: int = 1) -> list[McEstimate]:
    """Estimates for every ``(scenario, metric, p)`` job from one set of draws.

    ``metric`` is ``"outage"`` (fraction of positions with SNR <= gamma_th,
    binomial standard error sqrt(m(1-m)/n)) or ``"rate"`` (sample mean of
    log2(1 + SNR), standard error the sample standard deviation over
    sqrt(n)).  Each chunk's positions are drawn once on the unit disk and
    scaled once per distinct radius ``p.r``, the SNR is evaluated once per
    distinct ``(scenario, p)``, and only the requested metrics are reduced.
    Results come back in job order; each equals, bit for bit, the estimate
    the same job gets alone, for any ``workers``.
    """
    jobs = list(jobs)
    if n_samples < 1000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples!r}")
    # radius -> (scenario, p) -> metrics
    plan: dict[float, dict[tuple[Scenario, SystemParams], set[str]]] = {}
    for scenario, metric, p in jobs:
        if metric not in ("outage", "rate"):
            raise ValueError(f"metric must be 'outage' or 'rate', got {metric!r}")
        plan.setdefault(p.r, {}).setdefault((scenario, p), set()).add(metric)
    if not plan:
        return []

    radii = list(plan)
    # workspace rows: the draw in 0-2; one radius is scaled into it, whose
    # spent sqrt(u) row then holds the SNR, several get (x, y) rows 3-4
    snr_rows = (0, 3, 4) if len(radii) == 1 else (5, 6, 7)

    def worker(index: int, count: int, workspace: np.ndarray) -> dict:
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        unit = sample_unit_disk(rng, count, out=workspace[:3])
        snr_out = [workspace[row] for row in snr_rows]
        partial = {}
        for (x, y), evaluations in zip(scale_unit_disk(unit, radii, out=workspace[3:5]),
                                       plan.values()):
            for (scenario, p), metrics in evaluations.items():
                snr = snr_values(scenario, p, x, y, out=snr_out)
                _reduce(partial, scenario, p, metrics, snr, snr_out[1])
        return partial

    chunks = _run_chunks(worker, n_samples, workers, snr_rows[-1] + 1)
    return [_finish(metric, [chunk[scenario, metric, p] for chunk in chunks], n_samples, seed)
            for scenario, metric, p in jobs]


def estimate_outage(scenario: Scenario, p: SystemParams, n_samples: int,
                    seed: int, workers: int = 1) -> McEstimate:
    """Fraction of uniform device positions with SNR <= gamma_th.

    Standard error is the binomial sqrt(m(1-m)/n).  Deterministic per
    (seed, n_samples, scenario, params), independent of ``workers``.
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
