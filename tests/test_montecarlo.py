import itertools
import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from pinchpass import cli, montecarlo, outage_fwnl, outage_pwnl, rate_fwnl
from pinchpass.montecarlo import (
    CHUNK_SAMPLES,
    McEstimate,
    estimate_groups,
    estimate_many,
    estimate_outage,
    estimate_rate,
    snr_values,
)
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    extreme_reference,
    lattice_disk_mean,
    polar_disk_draw,
    polar_disk_draw_squared,
    random_reference,
)

SEED = 777
JOBS = [(scenario, metric) for scenario in Scenario for metric in ("outage", "rate")]


def snr_sample(scenario: Scenario, p: SystemParams, pos: tuple[float, float]) -> float:
    return float(snr_values(scenario, p, np.array([pos[0]]), np.array([pos[1]]))[0])


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
    # and positions off the disk, where full coverage must clip too
    x, y = np.append(x, [-55.0, -40.5, 41.0, 1e3]), np.append(y, [3.0, 0.0, -0.5, 2.0])
    for p in (SystemParams.reference(gamma_t_db=104.0, r=40.0, l=9.0),
              SystemParams.reference(gamma_t_db=97.0, r=40.0, h=3.0, alpha=0.05, l=30.0)):
        for scenario in Scenario:
            assert np.array_equal(snr_values(scenario, p, x, y),
                                  reference_snr(scenario, p, x, y * y))


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


# the lattice oracle's bound, fixed before its first run: 4 standard errors
# of the shift means, plus rounding where every point has the same value
def _within_lattice_bound(value, mean, stderr) -> bool:
    return bool(np.all(np.abs(np.asarray(value) - mean) <= 4.0 * stderr + 1e-12))


def test_lattice_oracle_integrates_the_disk_moments():
    # the means of 1 and of x^2 + y^2 over a disk of radius r are 1 and r^2/2
    r = 7.0
    mean, stderr = lattice_disk_mean(lambda x, y: np.stack([np.ones_like(x), x * x + y * y]), r)
    assert _within_lattice_bound([1.0, r * r / 2], mean, stderr)


def test_exact_closed_forms_agree_with_the_lattice_oracle():
    # the lattice rule integrates snr_values over the disk, sharing no algebra
    # with the closed forms; its rate standard error is ~3e-10, where a
    # 10^6-sample Monte-Carlo estimate's is ~8e-4.  A saturated outage (0 or 1
    # on the whole disk) checks little, so the first five box draws with an
    # unsaturated one are checked
    rng = np.random.default_rng(2026)
    draws = (random_reference(rng, gamma_lo=95.0, gamma_hi=120.0) for _ in itertools.count())
    unsaturated = (p for p in draws if 0.0 < outage_fwnl(p).value < 1.0
                   or 0.0 < outage_pwnl(p).value < 1.0)
    for shift_seed, p in enumerate(itertools.islice(unsaturated, 5)):

        def integrands(x, y):
            full, partial = (snr_values(s, p, x, y) for s in (Scenario.FWNL, Scenario.PWNL))
            return np.stack([full <= p.gamma_th, np.log2(1.0 + full), partial <= p.gamma_th])

        mean, stderr = lattice_disk_mean(integrands, p.r, seed=shift_seed)
        closed = [outage_fwnl(p).value, rate_fwnl(p).value, outage_pwnl(p).value]
        assert _within_lattice_bound(closed, mean, stderr), (p, closed, mean, stderr)
        assert stderr[1] <= 1e-9 * closed[1]


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


@pytest.mark.parametrize("n_samples, seed, name", [
    (999, SEED, "n_samples"), (1000.0, SEED, "n_samples"), ("1000", SEED, "n_samples"),
    (1000, -1, "seed"), (1000, 1.5, "seed"), (1000, 2 ** 128, "seed"), (1000, "7", "seed"),
])
def test_decided_and_sampled_jobs_reject_the_same_inputs(n_samples, seed, name):
    p = SystemParams.reference(gamma_t_db=100.0)
    decided = (Scenario.PWL, "outage", p.with_(gamma_th=1e30))
    assert montecarlo._saturated(Scenario.PWL, decided[2]) == 1.0
    for jobs in ([decided], [(Scenario.PWL, "outage", p)], [(Scenario.PWL, "rate", p)]):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            estimate_many(jobs, n_samples, seed)


def test_decided_and_sampled_jobs_accept_the_same_inputs():
    p = SystemParams.reference(gamma_t_db=100.0)
    decided = (Scenario.PWL, "outage", p.with_(gamma_th=1e30))
    for n_samples, seed in ((1000, 2 ** 128 - 1), (np.int64(1001), np.uint64(3)), (1000, 0)):
        estimates = estimate_many([decided, (Scenario.PWL, "outage", p)], n_samples, seed)
        assert [(e.n_samples, e.seed) for e in estimates] == [(n_samples, seed)] * 2
        assert estimates[0].mean == 1.0


def test_estimate_many_without_jobs_draws_nothing():
    assert estimate_many([], 10_000, SEED) == []


def reference_snr(scenario, p, x, y2):
    """The SNR at (x, sqrt(y2)) as one expression, with its temporaries
    (snr_values reuses them)."""
    l = p.half_length(scenario)
    alpha = p.alpha if scenario.lossy else 0.0
    x_pa = np.clip(x, -l, l)
    dx = x - x_pa
    guided = np.exp(-alpha * (x_pa + l))
    return derive_constants(p).eta * p.p_t * guided / (p.sigma2 * (y2 + p.h * p.h + dx * dx))


def reference_estimate(scenario, metric, p, n_samples, seed):
    """One job on its own draws, chunk by chunk: the estimator before sharing."""
    partials = []
    for index, start in enumerate(range(0, n_samples, CHUNK_SAMPLES)):
        count = min(CHUNK_SAMPLES, n_samples - start)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(index))
        snr = reference_snr(scenario, p, *polar_disk_draw_squared(rng, p.r, count))
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


def test_estimate_many_bit_identical_on_unaligned_workspace_rows():
    # below one chunk the workspace rows are n_samples wide, so an odd count
    # starts every row but the first off any SIMD vector boundary
    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    jobs = [(s, m, p) for p in (base, base.with_(r=15.0, l=7.5)) for s, m in JOBS]
    for job, est in zip(jobs, estimate_many(jobs, 1003, SEED)):
        assert repr(est) == repr(reference_estimate(*job, 1003, SEED))


def _plan_paths():
    # job sets that take each branch of the chunk plan
    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    full = base.with_(l=base.r)
    return {
        "alphas on one geometry": [(Scenario.PWNL, base), (Scenario.PWL, base),
                                   (Scenario.PWL, base.with_(alpha=0.04)),
                                   (Scenario.FWL, base.with_(alpha=0.01))],
        "two h at one radius": [(Scenario.PWL, base), (Scenario.PWL, base.with_(h=4.0)),
                                (Scenario.FWNL, base.with_(h=4.0))],
        "alpha = 0": [(Scenario.FWL, base.with_(alpha=0.0)), (Scenario.PWL, base.with_(alpha=0.0)),
                      (Scenario.FWNL, base)],
        "l = r": [(Scenario.PWNL, full), (Scenario.PWL, full), (Scenario.FWL, full)],
        "two radii": [(Scenario.PWL, base), (Scenario.FWL, base.with_(r=15.0, l=7.5)),
                      (Scenario.PWL, base.with_(r=15.0, l=7.5))],
        "two powers": [(Scenario.PWL, base), (Scenario.PWL, base.with_(p_t=4.0 * base.p_t)),
                       (Scenario.FWNL, base.with_(p_t=0.5 * base.p_t))],
    }


@pytest.mark.parametrize("n", [1003, 2 * CHUNK_SAMPLES + 17])
def test_estimate_many_bit_identical_on_every_plan_path(n):
    sets = _plan_paths()
    sets["all at once"] = [pair for pairs in sets.values() for pair in pairs]
    reference = {}
    for name, pairs in sets.items():
        jobs = [(s, m, p) for s, p in pairs for m in ("outage", "rate")]
        for job in jobs:
            if job not in reference:
                reference[job] = repr(reference_estimate(*job, n, SEED))
        for workers in (1, 2):
            estimates = estimate_many(jobs, n, SEED, workers)
            assert [repr(e) for e in estimates] == [reference[job] for job in jobs], name


def test_chunk_kernel_snr_is_the_snr_of_its_sine_free_positions(monkeypatch):
    # every SNR the kernel reduces, on every plan path and a partial chunk,
    # against snr_values at the drawn (x, sqrt(y^2))
    position, reduced = [], []
    scale, reduce = montecarlo._scale_draw, montecarlo._reduce

    def recording_scale(root_u, cos_t, r, rho, x, y2):
        scale(root_u, cos_t, r, rho, x, y2)
        position[:] = [x.copy(), y2.copy()]

    def recording_reduce(partial, scenario, p, metrics, snr, scratch):
        reduced.append((scenario, p, *position, snr.copy()))
        reduce(partial, scenario, p, metrics, snr, scratch)

    monkeypatch.setattr(montecarlo, "_scale_draw", recording_scale)
    monkeypatch.setattr(montecarlo, "_reduce", recording_reduce)
    for pairs in _plan_paths().values():
        reduced.clear()
        estimate_many([(s, "rate", p) for s, p in pairs], CHUNK_SAMPLES + 1003, SEED)
        assert len(reduced) == 2 * len(pairs)
        for scenario, p, x, y2, snr in reduced:
            assert np.all(y2 >= 0.0)
            expected = snr_values(scenario, p, x, np.sqrt(y2))
            assert np.max(np.abs(snr - expected) / expected) <= 1e-15


def test_chunk_plan_skips_identities_and_shares_path_loss(monkeypatch):
    calls = dict.fromkeys(("exp", "clip", "path loss"), 0)

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "exp", counting("exp", np.exp))
    monkeypatch.setattr(np, "clip", counting("clip", np.clip))
    monkeypatch.setattr(montecarlo, "_path_loss", counting("path loss", montecarlo._path_loss))

    def per_chunk(pairs):
        calls.update(dict.fromkeys(calls, 0))
        estimate_many([(s, m, p) for s, p in pairs for m in ("outage", "rate")],
                      2 * CHUNK_SAMPLES + 17, SEED)
        return tuple(count / 3 for count in calls.values())

    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    # (exp, clip, path loss) per chunk: one exp per lossy job with alpha > 0,
    # no clip at l = r, and a lone PWL reuses its path loss's clip
    assert per_chunk([(Scenario.PWL, base)]) == (1, 1, 1)
    assert per_chunk([(Scenario.FWL, base)]) == (1, 0, 1)
    assert per_chunk([(s, base) for s in Scenario]) == (2, 2, 2)
    # no exp for lossless or alpha = 0 jobs; FWNL and FWL share l = r, PWNL and PWL l
    assert per_chunk([(Scenario.FWNL, base), (Scenario.FWL, base.with_(alpha=0.0)),
                      (Scenario.PWNL, base), (Scenario.PWL, base.with_(alpha=0.0))]) == (0, 1, 2)
    # one path loss for every job on one (l, h, sigma2), a second for a new h;
    # a lossy job after another job in its geometry clips again
    shared = _plan_paths()["alphas on one geometry"][:3] + [
        (Scenario.PWL, base.with_(p_t=2.0 * base.p_t))]
    assert per_chunk(shared) == (3, 4, 1)
    assert per_chunk(shared + [(Scenario.PWL, base.with_(h=4.0))]) == (4, 5, 2)


def test_estimate_many_rejects_unknown_metric():
    p = SystemParams.reference()
    with pytest.raises(ValueError, match="metric"):
        estimate_many([(Scenario.FWNL, "outage", p), (Scenario.PWL, "snr", p)], 10_000, SEED)


def _chunk_jobs(radii):
    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    return [(s, m, base.with_(r=r, l=r / 2.0)) for r in radii for s, m in JOBS]


def test_chunks_reuse_one_workspace_without_page_faults():
    resource = pytest.importorskip("resource")
    jobs, n = _chunk_jobs([25.0]), 16 * CHUNK_SAMPLES
    estimate_many(jobs, n, SEED)        # first-use costs: code pages, generator setup
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_many(jobs, n, SEED)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # a fresh chunk-wide array touches 128 pages; allocating the draw and the
    # SNR's arrays afresh in every chunk faulted 900-1,200 pages per chunk
    assert faults / 16 < CHUNK_SAMPLES * 8 / 4096


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("radii, rows", [([25.0], 5.1), ([25.0, 15.0], 7.1)])
def test_chunk_workspace_peak_memory(radii, rows, workers):
    # one workspace per thread: 5 chunk-wide rows for one radius (the draw,
    # whose spent sqrt(u) row holds each job's SNR in turn, the path loss a
    # geometry's jobs share, and a scratch row for dx and the reductions), 7
    # for several (every radius but the last takes the spent angle row for
    # its SNR, and (x, y^2), scratch and path-loss rows 3-6).  Allocating per
    # chunk peaked at 5.02 and 8.03 rows per thread; the bound adds 0.08
    # rows for bookkeeping
    jobs, row = _chunk_jobs(radii), CHUNK_SAMPLES * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_many(jobs, 16 * CHUNK_SAMPLES, SEED, workers)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / row <= rows * workers
    assert (end - start) / row < 0.1    # the workspace is freed on return


def _forced_sampling(monkeypatch, jobs, n, seed, workers):
    # the same call with every job sampled: what each decision must equal
    with monkeypatch.context() as patched:
        patched.setattr(montecarlo, "_saturated", lambda scenario, p: None)
        return estimate_many(jobs, n, seed, workers)


@pytest.mark.parametrize("seed", [0, 1, 20260810, 2 ** 64 - 1, 2 ** 100 + 5, 2 ** 128 - 1])
def test_chunk_counter_stream_is_the_jumped_stream(seed):
    # chunk j's generator starts at counter [0, 0, j, 0]: the state that
    # jumping a fresh key-seeded Philox j times reaches, in far less time
    for j in (0, 1, 2, 15, 16, 1000):
        jumped = np.random.Philox(key=seed).jumped(j)
        counted = np.random.Philox(key=seed, counter=[0, 0, j, 0])
        assert repr(counted.state) == repr(jumped.state)
        assert np.array_equal(np.random.Generator(counted).random(70_000),
                              np.random.Generator(jumped).random(70_000))


def _groups():
    # several radii, a group the SNR bound decides whole, one partial chunk,
    # and a full chunk plus a remainder
    base = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    saturated = [(s, "outage", base.with_(gamma_th=g)) for s in Scenario for g in (1e-30, 1e30)]
    assert all(montecarlo._saturated(s, p) is not None for s, _, p in saturated)
    return {
        (2 * CHUNK_SAMPLES + 17, SEED): _chunk_jobs([25.0, 15.0, 40.0]),
        (CHUNK_SAMPLES + 1003, SEED + 1): saturated,
        (1000, SEED + 2): _chunk_jobs([25.0]),
        (70_000, SEED + 3): [(Scenario.PWL, m, base.with_(alpha=0.04)) for m in ("rate", "outage")]
                            + saturated[:2],
    }


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_estimate_groups_equal_each_groups_estimate_many(workers, monkeypatch):
    groups = _groups()
    single = {key: [repr(e) for e in estimate_many(jobs, *key)] for key, jobs in groups.items()}
    draws = _counting_draws(monkeypatch)
    estimates = estimate_groups({key: iter(jobs) for key, jobs in groups.items()}, workers)
    assert list(estimates) == list(groups)
    assert {key: [repr(e) for e in group] for key, group in estimates.items()} == single
    # the decided group draws nothing: 3 + 2 + 1 chunks
    assert sorted(draws) == sorted([CHUNK_SAMPLES] * 3 + [17, 1000, 70_000 - CHUNK_SAMPLES])


@pytest.mark.parametrize("n_samples, seed, name", [(999, SEED, "n_samples"), (1000, -1, "seed")])
def test_bad_last_group_raises_before_any_draw(n_samples, seed, name, monkeypatch):
    draws = _counting_draws(monkeypatch)
    groups = dict(_groups())
    groups[n_samples, seed] = _chunk_jobs([25.0])
    for workers in (1, 2):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            estimate_groups(groups, workers)
    assert draws == []


def test_pool_threads_draw_and_one_worker_draws_on_the_calling_thread(monkeypatch):
    threads = []
    sample_unit_disk = montecarlo.sample_unit_disk

    def drawing(rng, size, out=None):
        threads.append(threading.get_ident())
        return sample_unit_disk(rng, size, out)

    monkeypatch.setattr(montecarlo, "sample_unit_disk", drawing)
    groups = _groups()
    with monkeypatch.context() as patched:
        patched.setattr(threading.Thread, "start", lambda thread: pytest.fail("thread started"))
        estimate_groups(groups, 1)
    assert set(threads) == {threading.get_ident()}
    threads.clear()
    estimate_groups(groups, 3)
    assert len(threads) == 6 and threading.get_ident() not in threads


def test_claims_and_sums_survive_fast_thread_switches():
    # more threads than cores claim 1,000 one-chunk groups and append their
    # partial sums while the interpreter switches threads every microsecond;
    # a lost or repeated claim, or a lost append, changes an estimate
    p = SystemParams.reference(gamma_t_db=103.0, l=9.0)
    groups = {(1000, SEED + k): [(Scenario.PWL, "rate", p), (Scenario.FWL, "outage", p)]
              for k in range(1000)}
    expected, found = estimate_groups(groups, 1), []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: found.extend(
            estimate_groups(groups, 16) for _ in range(3)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and found == [expected] * 3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("radii, rows", [([25.0], 5.1), ([25.0, 15.0], 7.1)])
def test_workspace_fits_the_largest_plan_among_groups(radii, rows, workers):
    # one-radius groups beside a group of the given radii: the workspace
    # rows are those of the largest plan, 5 unless a group has several radii
    # (then 7).
    # Two chunks a group keep the partial sums' bookkeeping below 0.1 rows
    groups = {(2 * CHUNK_SAMPLES, SEED + k): _chunk_jobs([25.0]) for k in range(3)}
    groups[2 * CHUNK_SAMPLES, SEED + 3] = _chunk_jobs(radii)
    row = CHUNK_SAMPLES * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimate_groups(groups, workers)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / row <= rows * workers
    assert (end - start) / row < 0.1


def _assert_decisions_exact(monkeypatch, jobs, n=CHUNK_SAMPLES + 1003, seed=SEED):
    assert n % CHUNK_SAMPLES
    decided = sum(m == "outage" and montecarlo._saturated(s, p) is not None for s, m, p in jobs)
    for workers in (1, 2):
        estimates = estimate_many(jobs, n, seed, workers)
        forced = _forced_sampling(monkeypatch, jobs, n, seed, workers)
        assert [repr(e) for e in estimates] == [repr(e) for e in forced]
    return decided


def _figure_jobs(figure_ids):
    args = cli._build_parser().parse_args(["figure", *map(str, figure_ids)])
    return [(scenario, cfg.metric, p) for cfg in cli.figure_configs(figure_ids, args)
            for p, scenario in itertools.product(
                [cfg.params_at(float(v)) for v in cfg.grid()],
                cfg.scenarios)]


def test_decided_figure_jobs_equal_forced_sampling(monkeypatch):
    # figures 2 and 3 sweep the transmit SNR through both saturations; the
    # bound decides 97 of figure 2's 120 jobs and 63 of figure 3's 90
    assert _assert_decisions_exact(monkeypatch, _figure_jobs([2])) == 97
    assert _assert_decisions_exact(monkeypatch, _figure_jobs([3])) == 63
    assert _assert_decisions_exact(monkeypatch, _figure_jobs([4, 5, 6, 7])) == 0


@pytest.mark.parametrize("draw, seed", [(random_reference, 71), (extreme_reference, 72)])
def test_decided_random_jobs_equal_forced_sampling(monkeypatch, draw, seed):
    rng = np.random.default_rng(seed)
    jobs = [(s, "outage", draw(rng)) for _ in range(200) for s in Scenario]
    assert _assert_decisions_exact(monkeypatch, jobs) > 0


def _snr_bounds(scenario, p):
    # the upper and lower SNR bounds, stated from the SNR expression, and the
    # lower one's abscissa: the upper at the antenna, the lower on the disk
    # edge where the guided log-SNR -alpha*(x + l) - log(c - x^2) is least,
    # at the root of alpha*x^2 + 2x - alpha*c = 0 (c = r^2 + h^2) clamped to l
    gain = derive_constants(p).eta * p.p_t
    alpha, l = p.alpha if scenario.lossy else 0.0, p.half_length(scenario)
    c = p.r ** 2 + p.h ** 2
    x = min((math.sqrt(1.0 + alpha * alpha * c) - 1.0) / alpha, l) if alpha else 0.0
    weakest = gain * math.exp(-alpha * (x + l))
    return gain / (p.sigma2 * p.h * p.h), weakest / (p.sigma2 * (c - x * x)), x


@pytest.mark.parametrize("scenario", list(Scenario))
def test_lower_snr_bound_is_the_minimum_over_the_disk(scenario):
    # no drawn position and no point of a dense scan of the disk edge is
    # weaker than the bound, which the edge point above its abscissa meets
    rng = np.random.default_rng(73)
    edge = np.linspace(0.0, 2.0 * math.pi, 200_001)
    for alpha, l, h in itertools.product((0.0, 0.02, 0.05, 0.5), (2.0, 12.5, 25.0), (3.0, 10.0)):
        p = SystemParams.reference(alpha=alpha, l=l, h=h)
        lower, x = _snr_bounds(scenario, p)[1:]
        inside = snr_values(scenario, p, *polar_disk_draw(rng, p.r, 100_000))
        on_edge = snr_values(scenario, p, p.r * np.cos(edge), p.r * np.sin(edge))
        assert inside.min() >= lower and on_edge.min() >= lower * (1.0 - 1e-12)
        weakest = snr_values(scenario, p, x, math.sqrt(p.r ** 2 - x * x))
        assert weakest == pytest.approx(lower, rel=1e-12)


def test_jobs_at_the_bounds_equal_forced_sampling(monkeypatch):
    # a threshold a relative 1e-12 from a bound is left to sampling; one
    # 1e-6 beyond it is decided; each agrees with forced sampling bit for bit
    jobs, expected = [], []
    for base in (SystemParams.reference(gamma_t_db=100.0),
                 SystemParams.reference(gamma_t_db=100.0, r=40.0, h=3.0, alpha=0.05, l=2.0)):
        for scenario in Scenario:
            upper, lower, _ = _snr_bounds(scenario, base)
            for delta in (1e-12, 1e-9, 1e-6):
                for bound, sign, mean in ((upper, 1, 1.0), (upper, -1, None),
                                          (lower, -1, 0.0), (lower, 1, None)):
                    p = base.with_(gamma_th=bound * (1.0 + sign * delta))
                    jobs.append((scenario, "outage", p))
                    expected.append((delta, mean))
    decisions = [montecarlo._saturated(s, p) for s, _, p in jobs]
    for (delta, mean), decision in zip(expected, decisions):
        if delta == 1e-12 or mean is None:
            assert decision is None
        elif delta == 1e-6:
            assert decision == mean
    _assert_decisions_exact(monkeypatch, jobs)


def _counting_draws(monkeypatch):
    draws = []
    sample_unit_disk = montecarlo.sample_unit_disk

    def counting(rng, size, out=None):
        draws.append(size)
        return sample_unit_disk(rng, size, out)

    monkeypatch.setattr(montecarlo, "sample_unit_disk", counting)
    return draws


def test_all_decided_jobs_draw_nothing_and_allocate_no_workspace(monkeypatch):
    draws = _counting_draws(monkeypatch)
    p = SystemParams.reference(gamma_t_db=100.0)
    jobs = [(s, "outage", p.with_(gamma_th=g)) for s in Scenario for g in (1e-30, 1e30)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        estimates = estimate_many(jobs, 16 * CHUNK_SAMPLES, SEED, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert (peak - start) / (CHUNK_SAMPLES * 8) < 0.1
    assert [e.mean for e in estimates] == [0.0, 1.0] * 4
    assert {(e.stderr, e.n_samples, e.seed) for e in estimates} \
        == {(0.0, 16 * CHUNK_SAMPLES, SEED)}


def test_mixed_jobs_draw_once_per_chunk(monkeypatch):
    draws = _counting_draws(monkeypatch)
    p = SystemParams.reference(gamma_t_db=105.0, l=9.0)
    assert montecarlo._saturated(Scenario.PWL, p) is None
    n = 2 * CHUNK_SAMPLES + 17
    jobs = [(Scenario.PWL, "outage", p.with_(gamma_th=1e30)), (Scenario.PWL, "outage", p),
            (Scenario.FWNL, "outage", p.with_(r=15.0, l=7.5, gamma_th=1e-30))]
    estimates = estimate_many(jobs, n, SEED)
    assert draws == [CHUNK_SAMPLES, CHUNK_SAMPLES, 17]
    assert [e.mean for e in estimates[::2]] == [1.0, 0.0]
    assert repr(estimates[1]) == repr(reference_estimate(*jobs[1], n, SEED))


def test_decided_outage_beside_a_rate_job_keeps_the_sampled_rate(monkeypatch):
    draws = _counting_draws(monkeypatch)
    p = SystemParams.reference(gamma_t_db=100.0, gamma_th=1e30)
    n = CHUNK_SAMPLES + 17
    assert montecarlo._saturated(Scenario.PWL, p) == 1.0
    outage, rate = estimate_many([(Scenario.PWL, "outage", p), (Scenario.PWL, "rate", p)], n, SEED)
    assert len(draws) == 2
    assert (outage.mean, outage.stderr) == (1.0, 0.0)
    assert repr(rate) == repr(reference_estimate(Scenario.PWL, "rate", p, n, SEED))
