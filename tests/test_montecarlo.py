import math
import random

import numpy as np
import pytest

from pinchpass.analysis_full import outage_fwnl, rate_fwnl
from pinchpass.montecarlo import (
    CHUNK_SAMPLES,
    McEstimate,
    estimate_many,
    estimate_outage,
    estimate_rate,
    snr_sample,
    snr_values,
)
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import polar_disk_draw

SEED = 777
JOBS = [(scenario, metric) for scenario in Scenario for metric in ("outage", "rate")]


def overhead_snr(p: SystemParams) -> float:
    d = derive_constants(p)
    return d.eta * p.p_t / (p.sigma2 * p.h ** 2)


def test_snr_under_the_antenna():
    p = SystemParams.reference(gamma_t_db=104.0)
    expected = overhead_snr(p)
    assert snr_sample(Scenario.FWNL, p, (13.7, 0.0)) == pytest.approx(expected, rel=1e-12)
    # zero guided distance at the feed end of the lossy full guide
    assert snr_sample(Scenario.FWL, p, (-p.r, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_snr_far_end_of_partial_lossy_guide():
    p = SystemParams.reference(gamma_t_db=104.0, l=10.0)
    d = derive_constants(p)
    expected = d.eta * p.p_t * math.exp(-2 * p.alpha * p.l) / (
        p.sigma2 * (p.h ** 2 + (p.r - p.l) ** 2))
    assert snr_sample(Scenario.PWL, p, (p.r, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_snr_vectorized_branches_match_scalar():
    p = SystemParams.reference(gamma_t_db=104.0, l=8.0)
    xs = np.array([-20.0, -8.0, -3.0, 0.0, 8.0, 19.0])
    ys = np.array([1.0, -4.0, 2.0, 0.5, -1.0, 3.0])
    for scenario in Scenario:
        vec = snr_values(scenario, p, xs, ys)
        for x, y, v in zip(xs, ys, vec):
            assert snr_sample(scenario, p, (x, y)) == v


def test_snr_values_bitwise_equal_to_one_expression():
    x, y = polar_disk_draw(np.random.default_rng(SEED), 40.0, 100_000)
    for p in (SystemParams.reference(gamma_t_db=104.0, r=40.0, l=9.0),
              SystemParams.reference(gamma_t_db=97.0, r=40.0, h=3.0, alpha=0.05, l=30.0)):
        for scenario in Scenario:
            assert np.array_equal(snr_values(scenario, p, x, y), reference_snr(scenario, p, x, y))


def test_outage_estimator_threshold_extremes():
    p = SystemParams.reference(gamma_t_db=100.0)
    floor = overhead_snr(p) * 1e-4  # far below the worst sample SNR on the disk
    assert estimate_outage(Scenario.PWL, p.with_(gamma_th=floor), 10_000, SEED).mean == 0.0
    assert estimate_outage(Scenario.PWL, p.with_(gamma_th=1e30), 10_000, SEED).mean == 1.0


def test_outage_estimator_matches_closed_form():
    p = SystemParams.reference(gamma_t_db=100.0)
    est = estimate_outage(Scenario.FWNL, p, 1_000_000, SEED)
    assert abs(est.mean - outage_fwnl(p).value) <= 3 * est.stderr
    assert est.n_samples == 1_000_000 and est.seed == SEED


def test_rate_estimator_limits_and_closed_form():
    p = SystemParams.reference(gamma_t_db=100.0)
    assert estimate_rate(Scenario.FWNL, p.with_(p_t=1e-30), 10_000, SEED).mean \
        == pytest.approx(0.0, abs=1e-12)
    est = estimate_rate(Scenario.FWNL, p, 10_000_000, SEED)
    assert abs(est.mean - rate_fwnl(p).value) <= 3 * est.stderr


def test_partial_with_full_span_matches_full_coverage_bitwise():
    p = SystemParams.reference(gamma_t_db=106.0, l=25.0)
    x, y = np.array([-24.0, -5.0, 0.0, 12.0]), np.array([1.0, -2.0, 4.0, 0.2])
    assert np.array_equal(snr_values(Scenario.PWL, p, x, y),
                          snr_values(Scenario.FWL, p, x, y))
    est_pwl = estimate_outage(Scenario.PWL, p, 200_000, SEED)
    est_fwl = estimate_outage(Scenario.FWL, p, 200_000, SEED)
    assert est_pwl == est_fwl


def test_estimates_bit_identical_across_runs_and_workers():
    p = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    for estimator in (estimate_outage, estimate_rate):
        baseline = estimator(Scenario.PWL, p, 300_000, SEED, workers=1)
        rerun = estimator(Scenario.PWL, p, 300_000, SEED, workers=1)
        assert rerun == baseline
        for workers in (4, 8):
            assert estimator(Scenario.PWL, p, 300_000, SEED, workers=workers) == baseline


def test_different_seed_changes_samples():
    p = SystemParams.reference(gamma_t_db=103.0)
    a = estimate_rate(Scenario.FWNL, p, 50_000, 1)
    b = estimate_rate(Scenario.FWNL, p, 50_000, 2)
    assert a.mean != b.mean


def test_stderr_scales_with_sample_count():
    p = SystemParams.reference(gamma_t_db=104.0)
    for estimator in (estimate_outage, estimate_rate):
        small = estimator(Scenario.PWL, p, 250_000, SEED)
        large = estimator(Scenario.PWL, p, 1_000_000, SEED)
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.2)


def test_minimum_sample_count_enforced():
    p = SystemParams.reference()
    with pytest.raises(ValueError, match="n_samples"):
        estimate_outage(Scenario.FWNL, p, 999, SEED)


def reference_snr(scenario, p, x, y):
    """The SNR as one expression, with its temporaries (snr_values reuses them)."""
    l = p.half_length(scenario)
    alpha = p.alpha if scenario.lossy else 0.0
    x_pa = np.clip(x, -l, l)
    dx = x - x_pa
    guided = np.exp(-alpha * (x_pa + l))
    return derive_constants(p).eta * p.p_t * guided / (p.sigma2 * (y * y + p.h * p.h + dx * dx))


def reference_estimate(scenario, metric, p, n_samples, seed):
    """One job on its own draws, chunk by chunk: the estimator before sharing."""
    partials = []
    for index, start in enumerate(range(0, n_samples, CHUNK_SAMPLES)):
        count = min(CHUNK_SAMPLES, n_samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        snr = reference_snr(scenario, p, *polar_disk_draw(rng, p.r, count))
        if metric == "outage":
            partials.append(int(np.count_nonzero(snr <= p.gamma_th)))
        else:
            rate = np.log2(1.0 + snr)
            partials.append((float(np.sum(rate)), float(np.sum(rate * rate))))
    if metric == "outage":
        mean = sum(partials) / n_samples
        stderr = math.sqrt(mean * (1.0 - mean) / n_samples)
    else:
        mean = math.fsum(a for a, _ in partials) / n_samples
        s2 = math.fsum(b for _, b in partials)
        stderr = math.sqrt(max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1) / n_samples)
    return McEstimate(mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


def single_estimate(scenario, metric, p, n_samples, seed, workers=1):
    estimator = estimate_outage if metric == "outage" else estimate_rate
    return estimator(scenario, p, n_samples, seed, workers)


@pytest.mark.parametrize("workers", [1, 4])
def test_estimate_many_bit_identical_to_single_estimates(workers):
    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    # figure variants: radii, attenuations and transmit powers on one seed
    mixed = [base, base.with_(r=15.0, l=7.5), base.with_(alpha=0.04),
             base.with_(r=40.0, l=20.0, alpha=0.01), base.with_(p_t=4.0 * base.p_t),
             base.with_(r=15.0, l=7.5, p_t=0.5 * base.p_t)]
    n = 150_001
    assert n % CHUNK_SAMPLES != 0
    for variants in ([base], mixed):
        jobs = [(s, m, p) for p in variants for s, m in JOBS]
        single = {job: single_estimate(*job, n, SEED, workers) for job in jobs}
        for job, est in zip(jobs, estimate_many(jobs, n, SEED, workers)):
            assert repr(est) == repr(single[job]) == repr(reference_estimate(*job, n, SEED))
        shuffled = jobs + [jobs[3]]
        random.Random(SEED).shuffle(shuffled)
        assert estimate_many(shuffled, n, SEED, workers) == [single[job] for job in shuffled]


def test_estimate_many_rejects_unknown_metric():
    p = SystemParams.reference()
    with pytest.raises(ValueError, match="metric"):
        estimate_many([(Scenario.FWNL, "outage", p), (Scenario.PWL, "snr", p)], 10_000, SEED)
