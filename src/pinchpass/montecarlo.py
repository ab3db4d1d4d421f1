"""Seeded Monte-Carlo estimators for outage probability and average rate.

Sampling runs in fixed 65536-sample chunks.  Chunk ``j`` draws from its own
counter-derived Philox stream (``Philox(key=seed).jumped(j)``) and partial
sums are reduced in chunk order (an integer sum for outage, exact
``math.fsum`` for rate), so an estimate is bit-identical for a given
(seed, n_samples) no matter how many workers execute the chunks or in which
order they finish.

One chunk kernel, ``estimate_many``, serves every estimate.  It takes a list
of (scenario, metric) jobs sharing one seed, draws each chunk's positions
once, evaluates the SNR once per distinct scenario and reduces only the
metrics asked for.  Positions, SNR and reductions are exactly those of a
single-job call, so every estimate it returns is bit-identical to the one
``estimate_outage``/``estimate_rate`` (one-job calls of the same kernel)
give alone.

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

from .geometry import sample_uniform_disk
from .params import Scenario, SystemParams, derive_constants

CHUNK_SAMPLES = 1 << 16


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
    exponent.  Full coverage uses l = r.
    """
    l = p.half_length(scenario)
    alpha = p.alpha if scenario.lossy else 0.0
    eta = derive_constants(p).eta
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_pa = np.clip(x, -l, l)
    dx = x - x_pa
    guided = np.exp(-alpha * (x_pa + l))
    return eta * p.p_t * guided / (p.sigma2 * (y * y + p.h * p.h + dx * dx))


def snr_sample(scenario: Scenario, p: SystemParams, pos: tuple[float, float]) -> float:
    """Scalar SNR for a single device position."""
    x, y = pos
    return float(snr_values(scenario, p, np.array([x]), np.array([y]))[0])


def _chunk_layout(n_samples: int):
    full, rem = divmod(n_samples, CHUNK_SAMPLES)
    counts = [CHUNK_SAMPLES] * full
    if rem:
        counts.append(rem)
    return counts


def _chunk_positions(seed: int, index: int, count: int, r: float):
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
    return sample_uniform_disk(rng, r, count)


def _run_chunks(worker, n_samples: int, workers: int):
    counts = _chunk_layout(n_samples)
    jobs = list(enumerate(counts))
    if workers <= 1:
        return [worker(j, c) for j, c in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda jc: worker(*jc), jobs))


def _check_samples(n_samples: int) -> None:
    if n_samples < 1000:
        raise ValueError(f"n_samples must be at least 1000, got {n_samples!r}")


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


def estimate_many(jobs, p: SystemParams, n_samples: int, seed: int,
                  workers: int = 1) -> list[McEstimate]:
    """Estimates for every ``(scenario, metric)`` job from one set of draws.

    ``metric`` is ``"outage"`` (fraction of positions with SNR <= gamma_th,
    binomial standard error sqrt(m(1-m)/n)) or ``"rate"`` (sample mean of
    log2(1 + SNR), standard error the sample standard deviation over
    sqrt(n)).  Each chunk's positions are drawn once, the SNR is evaluated
    once per distinct scenario, and only the requested metrics are reduced.
    Results come back in job order; each equals, bit for bit, the estimate
    the same job gets alone, for any ``workers``.
    """
    jobs = list(jobs)
    _check_samples(n_samples)
    wanted: dict[Scenario, set[str]] = {}
    for scenario, metric in jobs:
        if metric not in ("outage", "rate"):
            raise ValueError(f"metric must be 'outage' or 'rate', got {metric!r}")
        wanted.setdefault(scenario, set()).add(metric)

    def worker(index: int, count: int) -> dict:
        x, y = _chunk_positions(seed, index, count, p.r)
        partial = {}
        for scenario, metrics in wanted.items():
            snr = snr_values(scenario, p, x, y)
            if "outage" in metrics:
                partial[scenario, "outage"] = int(np.count_nonzero(snr <= p.gamma_th))
            if "rate" in metrics:
                # in place: one temporary, as many as log2(1 + snr) needs
                # when the SNR array is itself a temporary
                rate = 1.0 + snr
                np.log2(rate, out=rate)
                partial[scenario, "rate"] = (float(np.sum(rate)), float(np.sum(rate * rate)))
        return partial

    chunks = _run_chunks(worker, n_samples, workers)
    return [_finish(metric, [chunk[scenario, metric] for chunk in chunks], n_samples, seed)
            for scenario, metric in jobs]


def estimate_outage(scenario: Scenario, p: SystemParams, n_samples: int,
                    seed: int, workers: int = 1) -> McEstimate:
    """Fraction of uniform device positions with SNR <= gamma_th.

    Standard error is the binomial sqrt(m(1-m)/n).  Deterministic per
    (seed, n_samples, scenario, params), independent of ``workers``.
    """
    return estimate_many([(scenario, "outage")], p, n_samples, seed, workers)[0]


def estimate_rate(scenario: Scenario, p: SystemParams, n_samples: int,
                  seed: int, workers: int = 1) -> McEstimate:
    """Sample mean of log2(1 + SNR) over uniform device positions.

    Standard error is the sample standard deviation over sqrt(n).
    Deterministic per (seed, n_samples, scenario, params), independent of
    ``workers``.
    """
    return estimate_many([(scenario, "rate")], p, n_samples, seed, workers)[0]
