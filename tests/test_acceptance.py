"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerance notes.  The half-length degeneracy identities (l = r) hold to
rounding, so they are checked at 1e-9 absolute (outage) / 1e-6 relative
(rate).  The attenuation-continuity identities are evaluated at
alpha = 1e-9, where the exact model gap is first order in alpha (about
alpha times d(outage)/d(alpha), i.e. ~1e-8 here); those rows are checked
at 1e-6 absolute (outage) / 1e-6 relative (rate), which bounds the
first-order gap with two orders of margin while still catching any
normalization or dispatch defect.
"""

import math

import numpy as np

from pinchpass import (
    evaluate,
    optimal_length_search,
    outage_fwl,
    outage_fwnl,
    outage_pwl,
    outage_pwnl,
    rate_fwl,
    rate_fwnl,
    rate_pwl,
    rate_pwnl,
)
from pinchpass.analysis import _chebyshev_nodes
from pinchpass.cli import main
from pinchpass.montecarlo import estimate_many, estimate_outage, estimate_rate
from pinchpass._outage_lossy import classify_crossings
from pinchpass.params import Scenario, SystemParams
from oracles import (
    alternating_series_li2_minus1,
    case_sides,
    li2_series,
    params_with_a,
    random_reference,
    scan_crossings,
    side_label,
)

SEED = 20260810
LATTICE_NODES = 2000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_agreement():
    rng = np.random.default_rng(SEED)
    n = 1_000_000
    worst = -math.inf
    failures = []
    for i in range(50):
        p = random_reference(rng)
        jobs = [(scenario, metric, p) for scenario in Scenario for metric in ("outage", "rate")]
        # one shared draw per configuration; each estimate is bit-identical
        # to its single-job estimate_outage/estimate_rate call
        estimates = {job[:2]: est for job, est in zip(jobs, estimate_many(jobs, n, SEED + i))}
        for scenario in Scenario:
            value_o = evaluate(scenario, "outage", p).value
            est_o = estimates[scenario, "outage"]
            gap_o = abs(value_o - est_o.mean)
            if gap_o > 3 * est_o.stderr + 1e-4:
                failures.append((i, scenario.name, "outage", gap_o))
            value_r = evaluate(scenario, "rate", p).value
            est_r = estimates[scenario, "rate"]
            gap_r = abs(value_r - est_r.mean)
            if gap_r > 3 * est_r.stderr:
                failures.append((i, scenario.name, "rate", gap_r))
            worst = max(worst, gap_o - 3 * est_o.stderr - 1e-4,
                        gap_r - 3 * est_r.stderr)
    report(1, not failures,
           f"closed form vs MC on 50 draws x 4 scenarios at n=1e6; "
           f"worst margin {worst:+.2e} ({len(failures)} failures)")


def test_criterion_2_consistency_lattice():
    rng = np.random.default_rng(SEED + 2)
    worst = {"l=r outage": 0.0, "l=r rate": 0.0, "a~0 outage": 0.0, "a~0 rate": 0.0}
    for _ in range(100):
        p = random_reference(rng)
        full = p.with_(l=p.r)
        worst["l=r outage"] = max(
            worst["l=r outage"],
            abs(outage_pwnl(full).value - outage_fwnl(full).value),
            abs(outage_pwl(full).value - outage_fwl(full).value))
        fwnl_rate = rate_fwnl(full).value
        fwl_rate = rate_fwl(full, LATTICE_NODES).value
        worst["l=r rate"] = max(
            worst["l=r rate"],
            abs(rate_pwnl(full, LATTICE_NODES).value - fwnl_rate) / fwnl_rate,
            abs(rate_pwl(full, LATTICE_NODES).value - fwl_rate) / max(fwl_rate, 1e-12))
        tiny = p.with_(alpha=1e-9)
        worst["a~0 outage"] = max(
            worst["a~0 outage"],
            abs(outage_fwl(tiny).value - outage_fwnl(tiny).value),
            abs(outage_pwl(tiny).value - outage_pwnl(tiny).value))
        pwnl_rate = rate_pwnl(tiny, LATTICE_NODES).value
        worst["a~0 rate"] = max(
            worst["a~0 rate"],
            abs(rate_fwl(tiny, LATTICE_NODES).value - rate_fwnl(tiny).value)
            / rate_fwnl(tiny).value,
            abs(rate_pwl(tiny, LATTICE_NODES).value - pwnl_rate) / max(pwnl_rate, 1e-12))
    ok = (worst["l=r outage"] <= 1e-9 and worst["l=r rate"] <= 1e-6
          and worst["a~0 outage"] <= 1e-6 and worst["a~0 rate"] <= 1e-6)
    report(2, ok,
           "lattice on 100 draws: "
           f"l=r outage {worst['l=r outage']:.2e} (tol 1e-9), "
           f"l=r rate {worst['l=r rate']:.2e} rel (tol 1e-6), "
           f"alpha~0 outage {worst['a~0 outage']:.2e} (tol 1e-6), "
           f"alpha~0 rate {worst['a~0 rate']:.2e} rel (tol 1e-6)")


def test_criterion_3_rate_versus_length_shape():
    best = []
    ok = True
    for alpha in (0.01, 0.02, 0.03, 0.04):
        p = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
        res = optimal_length_search(p, metric="rate", grid_spec=(0.5, 25.0, 50))
        values = [v for _, v in res.grid]
        ok &= res.best_value > values[0] and res.best_value > values[-1]
        best.append(res.best_l)
    ok &= all(b <= a + 1e-6 for a, b in zip(best, best[1:]))
    ok &= best[-1] < best[0] - 0.1
    report(3, ok, "rate vs half-length has an interior maximum per alpha and "
                  f"argmax {['%.2f' % b for b in best]} is non-increasing")


def test_criterion_4_lossy_full_vs_partial_ordering():
    gammas = [110.0, 112.5, 115.0, 117.5, 120.0, 122.5, 125.0]
    ok = True
    gaps = {}
    for alpha in (0.02, 0.04):
        gaps[alpha] = {}
        for g in gammas:
            p = SystemParams.reference(gamma_t_db=g, alpha=alpha, l=12.5)
            fwl = outage_fwl(p).value
            pwl = outage_pwl(p).value
            if fwl > 1e-12:          # ordering is strict wherever the floor is active
                ok &= fwl > pwl
            gaps[alpha][g] = fwl - pwl
    anchor = gaps[0.04][110.0] > gaps[0.02][110.0] > 0.0
    widens = all(gaps[0.04][g] >= gaps[0.02][g] - 1e-12 for g in gammas)
    ok &= anchor and widens
    report(4, ok, "FWL outage exceeds PWL at gamma_t >= 110 dB and the gap widens "
                  f"with alpha (at 110 dB: {gaps[0.02][110.0]:.4f} -> {gaps[0.04][110.0]:.4f})")


def test_criterion_5_outage_versus_length_shape():
    best = []
    ok = True
    for alpha in (0.01, 0.02, 0.03, 0.04):
        p = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
        res = optimal_length_search(p, metric="outage", grid_spec=(0.5, 25.0, 50))
        values = [v for _, v in res.grid]
        ok &= res.best_value < values[0] and res.best_value < values[-1]
        best.append(res.best_l)
    ok &= all(b <= a + 1e-6 for a, b in zip(best, best[1:]))
    ok &= best[-1] < best[0] - 0.1
    report(5, ok, "outage vs half-length has an interior minimum per alpha and "
                  f"argmin {['%.2f' % b for b in best]} is non-increasing")


def test_criterion_6_special_function_units():
    # the dilogarithm of the paper's FWL rate oracle and the Chebyshev nodes
    # of the library's chord-rate kernel
    li2_zero, li2_minus1 = (float(v) for v in li2_series(np.array([0.0, -1.0])))
    ok = li2_zero == 0.0
    series = alternating_series_li2_minus1(1000)
    gap_series = abs(li2_minus1 - series)
    ok &= gap_series <= 1e-12
    ok &= abs(li2_minus1 + math.pi ** 2 / 12.0) <= 1e-12
    nodes, sines = _chebyshev_nodes(16)
    gap_quad = abs(math.pi / 16 * float(np.sum(sines * np.sqrt(1 - nodes * nodes)))
                   - math.pi / 2)
    ok &= gap_quad <= 1e-14
    report(6, ok, f"Li2(0)=0 exact, Li2(-1) vs series oracle {gap_series:.1e}, "
                  f"semicircle quadrature gap {gap_quad:.1e} at 16 nodes")


def test_criterion_7_branch_and_seam_continuity():
    rng = np.random.default_rng(SEED + 7)
    worst_branch = 0.0
    for _ in range(100):
        r = rng.uniform(5.0, 40.0)
        l = rng.uniform(0.05, 0.999) * r
        base = SystemParams.reference(r=r, l=l)
        # the lossless partial-coverage outage at sqrt(A) = x, across the
        # seams r - l and sqrt(r^2 - l^2) of its distance CDF and at r
        at = lambda x: outage_pwnl(params_with_a(x * x, base)).value
        checks = [(at((r - l) * (1 - 1e-12)), at((r - l) * (1 + 1e-12))),
                  (at(math.sqrt(r * r - l * l) * (1 - 1e-12)),
                   at(math.sqrt(r * r - l * l) * (1 + 1e-12))),
                  (at(r * (1 - 1e-12)), 0.0)]
        worst_branch = max(worst_branch, *(abs(a - b) for a, b in checks))

    worst_seam = 0.0
    seams = 0
    for l in (9.0, 12.5, 18.0):
        p = SystemParams.reference(l=l)
        grid_db = np.linspace(95.0, 125.0, 151)
        cases = []
        powers = []
        for g in grid_db:
            q = p.with_(p_t=p.sigma2 * 10 ** (g / 10.0))
            cases.append(outage_pwl(q).case_id)
            powers.append(q.p_t)
        for c1, c2, lo, hi in zip(cases, cases[1:], powers, powers[1:]):
            if c1 == c2:
                continue
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if outage_pwl(p.with_(p_t=mid)).case_id == c1:
                    lo = mid
                else:
                    hi = mid
            below = outage_pwl(p.with_(p_t=lo * (1 - 1e-9))).value
            above = outage_pwl(p.with_(p_t=hi * (1 + 1e-9))).value
            worst_seam = max(worst_seam, abs(above - below))
            seams += 1
    ok = worst_branch <= 1e-9 and worst_seam <= 1e-6 and seams >= 6
    report(7, ok, f"lossless outage gaps across the distance-CDF seams <= {worst_branch:.1e} "
                  f"over 100 draws; {seams} dispatch seams continuous within {worst_seam:.1e}")


def test_criterion_8_classifier_against_dense_scan():
    rng = np.random.default_rng(SEED + 8)
    mismatches = 0
    for k in range(200):
        p = random_reference(rng, alpha_max=0.05)
        p = p.with_(alpha=max(p.alpha, 1e-4))
        scenario = Scenario.PWL if k % 2 else Scenario.FWL
        l = p.half_length(scenario)
        report_ = classify_crossings(p, scenario)
        g_scan, f_scan = scan_crossings(p, scenario, n=1_000_000)
        spacing = 2 * p.r / 1_000_000
        if len(report_.g_roots) != len(g_scan) or len(report_.f_roots) != len(f_scan):
            mismatches += 1
            continue
        # the case id names the side of each of the two roots
        for root, side, approx in zip(report_.g_roots + report_.f_roots,
                                      case_sides(report_.case_id), g_scan + f_scan):
            if abs(root - approx) > 2 * spacing:
                mismatches += 1
            elif (min(abs(approx - l), abs(approx + l)) > 2 * spacing
                  and side != side_label(approx, l)):
                mismatches += 1
    report(8, mismatches == 0,
           f"root counts, locations and case-id sides agree with a 1e6-point "
           f"sign scan on 200 random configurations ({mismatches} mismatches)")


def test_criterion_9_bit_reproducibility(tmp_path):
    p = SystemParams.reference(gamma_t_db=104.0, l=9.0)
    ok = True
    for estimator in (estimate_outage, estimate_rate):
        baseline = estimator(Scenario.PWL, p, 300_000, SEED, workers=1)
        ok &= estimator(Scenario.PWL, p, 300_000, SEED, workers=1) == baseline
        for workers in (4, 8):
            ok &= estimator(Scenario.PWL, p, 300_000, SEED, workers=workers) == baseline

    cfg = tmp_path / "sweep.ini"
    out = tmp_path / "out.csv"
    cfg.write_text(f"""
[sweep]
metric = outage
variable = gamma_t_db
start = 100
stop = 110
steps = 3
scenarios = FWL, PWL

[mc]
n_samples = 50000
seed = {SEED}

[output]
path = {out}
""")
    blobs = []
    for workers in (1, 4, 8, 1):
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers)]) == 0
        blobs.append(out.read_bytes())
    ok &= all(b == blobs[0] for b in blobs)
    report(9, ok, "MC estimates and sweep CSV bytes identical across reruns "
                  "and worker counts {1, 4, 8}")
