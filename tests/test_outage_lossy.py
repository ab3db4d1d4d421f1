import math
import types
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.special import lambertw

from pinchpass._outage_lossy import (
    CASE_ALL_OUTAGE,
    CASE_NO_OUTAGE,
    _Pieces,
    _classify,
    _closed_form,
    _peak_abscissa,
    _sqrt_clamped,
    classify_crossings,
    evaluate_lossy_outage,
    lossy_outage,
)
from pinchpass import _outage_lossy, evaluate, outage_pwl
from pinchpass.montecarlo import estimate_outage
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    CASE_PROBES,
    CLOSED_FORM_CASES,
    case_sides,
    extreme_reference,
    outage_by_mpmath,
    random_reference,
    scan_crossings,
    side_label,
    threshold_curves,
)


# ---------------------------------------------------------------------------
# crossing classifier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma_t_db,alpha,l,expected", CASE_PROBES)
def test_classifier_hits_every_case(gamma_t_db, alpha, l, expected):
    p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha, l=l)
    report = classify_crossings(p, Scenario.PWL)
    assert report.case_id == expected


def test_classifier_degenerate_flags():
    # a saturated outage has no roots, and its case id names the value
    p_low = SystemParams.reference(gamma_t_db=95.0)
    report = classify_crossings(p_low, Scenario.PWL)
    assert (report.g_roots, report.f_roots, report.case_id) == ((), (), CASE_ALL_OUTAGE)
    assert lossy_outage(p_low, p_low.half_length(Scenario.PWL), report) == (1.0, CASE_ALL_OUTAGE)
    p_high = SystemParams.reference(gamma_t_db=125.0, alpha=0.001)
    report = classify_crossings(p_high, Scenario.FWL)
    assert (report.g_roots, report.f_roots, report.case_id) == ((), (), CASE_NO_OUTAGE)
    assert lossy_outage(p_high, p_high.half_length(Scenario.FWL), report) == (0.0, CASE_NO_OUTAGE)
    with pytest.raises(ValueError):
        classify_crossings(p_low, Scenario.FWNL)


def test_classifier_roots_satisfy_equations():
    for gamma_t_db, alpha, l, _ in CASE_PROBES:
        p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha, l=l)
        f, g = threshold_curves(p, Scenario.PWL)
        report = classify_crossings(p, Scenario.PWL)
        for root in report.g_roots:
            assert abs(float(g(root))) <= 1e-9
        for root in report.f_roots:
            assert abs(float(f(root))) <= 1e-9


def test_threshold_curve_left_of_guide_does_not_overflow():
    # alpha*r far above the exp range: the middle branch, discarded left of
    # -l, once overflowed there and raised a RuntimeWarning
    p = SystemParams.reference(gamma_t_db=105.0, h=10.0, r=40.0, l=0.04, alpha=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = outage_pwl(p).value
        f, _ = threshold_curves(p, Scenario.PWL)
        left = float(f(-p.r))
    assert value == pytest.approx(0.9593655761849202, abs=1e-12)
    assert left == derive_constants(p).C - p.h ** 2 - (p.l - p.r) ** 2
    est = estimate_outage(Scenario.PWL, p, 1_000_000, 1)
    assert abs(value - est.mean) <= 3 * est.stderr + 1e-4


def test_classifier_reference_config_against_scan():
    p = SystemParams.reference(gamma_t_db=105.0)  # r=25, alpha=0.02, threshold 100
    report = classify_crossings(p, Scenario.PWL)
    g_scan, f_scan = scan_crossings(p, Scenario.PWL)
    assert len(report.g_roots) == len(g_scan)
    assert len(report.f_roots) == len(f_scan)
    spacing = 2 * p.r / 1_000_000
    for root, side, approx in zip(report.g_roots, case_sides(report.case_id), g_scan):
        assert abs(root - approx) <= 2 * spacing
        assert side == side_label(approx, p.l)


def test_classifier_on_extreme_set():
    # roots are closed forms except on the middle segment, the peak is the
    # Newton zero of the clearance slope: check every root against the
    # vectorized curves
    rng = np.random.default_rng(20261018)
    cases = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(4000):
            p = extreme_reference(rng)
            C = derive_constants(p).C
            tol = 1e-12 * (p.r ** 2 + C)
            for scenario in (Scenario.FWL, Scenario.PWL):
                l = p.half_length(scenario)
                f, g = threshold_curves(p, scenario)
                report = classify_crossings(p, scenario)
                cases[report.case_id] += 1
                for root in report.g_roots:
                    assert abs(float(g(root))) <= tol
                for root in report.f_roots:
                    assert abs(float(f(root))) <= tol
                # the case id names the side of each of the two roots
                roots = report.g_roots + report.f_roots
                if roots:
                    assert case_sides(report.case_id) == [side_label(x, l) for x in roots]
                x_star = _peak_abscissa(p.alpha, C, l)
                slope_term = p.alpha * C * math.exp(-p.alpha * (x_star + l))
                # the slope of g vanishes there: alpha C exp(-alpha(x+l)) = 2x
                assert slope_term == pytest.approx(2.0 * x_star, rel=1e-12, abs=1e-300)
                value, case = lossy_outage(p, l, report)
                # the one check of evaluate_lossy_outage, which perfbench's layer probe times
                assert evaluate_lossy_outage(p, scenario, report) == (value, case)
                assert 0.0 <= value <= 1.0 and case == report.case_id
    # every closed form and both degenerate regimes
    assert set(cases) == set(CLOSED_FORM_CASES) | {CASE_ALL_OUTAGE, CASE_NO_OUTAGE}


def test_peak_abscissa_against_lambert_w():
    # the slope zero is W(z)/alpha with z = alpha^2 C exp(-alpha l)/2; scipy's
    # lambertw is a test-only oracle here
    for alpha in (1e-3, 0.02, 1.0, 50.0):
        l = 1.0 / alpha
        for z in np.logspace(-300, 300, 601):
            C = 2.0 * float(z) * math.exp(alpha * l) / alpha ** 2
            z_used = 0.5 * alpha * alpha * C * math.exp(-alpha * l)
            expected = float(lambertw(z_used).real) / alpha
            assert _peak_abscissa(alpha, C, l) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert _peak_abscissa(0.0, 1e3, 5.0) == 0.0
    # exp(-alpha l) underflows: W(0) = 0
    assert _peak_abscissa(50.0, 1e3, 1e4) == 0.0


def test_peak_abscissa_newton_steps(monkeypatch):
    # over the grid of the test above, Newton on w - ln(z/w) from a lower
    # bound of W converges in a few steps; Newton from 0 in x advances ~1/alpha
    # per step and needs hundreds at z = 1e300.  Each step costs one math.log
    # or math.exp; the start costs one exp (for z) and, above e, two logs
    calls = 0

    def counted(fn):
        def call(x):
            nonlocal calls
            calls += 1
            return fn(x)
        return call

    monkeypatch.setattr(_outage_lossy, "math", types.SimpleNamespace(
        e=math.e, exp=counted(math.exp), log=counted(math.log)))
    worst = 0
    for alpha in (1e-3, 0.02, 1.0, 50.0):
        l = 1.0 / alpha
        for z in np.logspace(-300, 300, 601):
            C = 2.0 * float(z) * math.exp(alpha * l) / alpha ** 2
            z_used = 0.5 * alpha * alpha * C * math.exp(-alpha * l)
            calls = 0
            _peak_abscissa(alpha, C, l)
            worst = max(worst, calls - 1 - 2 * (z_used > math.e))
    assert 0 < worst <= 8


def test_g2_left_mid_never_occurs():
    # see the proof in _outage_lossy._classify
    rng = np.random.default_rng(4000)
    cases = Counter()
    left_roots = 0
    for _ in range(2000):
        p = random_reference(rng)
        for scenario in (Scenario.FWL, Scenario.PWL):
            report = classify_crossings(p, scenario)
            cases[report.case_id] += 1
            left_roots += any(x < -p.half_length(scenario) for x in report.g_roots)
    assert sum(cases.values()) == 4000
    assert "g2-left-mid" not in cases
    assert "g2-left-right" in cases and left_roots > 0


def test_root_report_is_a_named_tuple():
    p = SystemParams.reference(gamma_t_db=110.0, alpha=0.005, l=12.5)
    report = classify_crossings(p, Scenario.PWL)
    assert isinstance(report, tuple) and type(report) is _outage_lossy.RootReport
    assert report._fields == ("g_roots", "f_roots", "case_id")
    g_roots, f_roots, case_id = report
    assert report == (g_roots, f_roots, case_id)
    assert repr(report) == (f"RootReport(g_roots={g_roots!r}, f_roots={f_roots!r}, "
                            f"case_id={case_id!r})")


def test_closed_form_outside_unit_interval_raises():
    # numerical error is detected, not recovered: a hand-built report with
    # its two g roots swapped integrates the outage region backwards
    p = SystemParams.reference(gamma_t_db=110.0, alpha=0.005, l=12.5)
    report = classify_crossings(p, Scenario.PWL)
    assert report.case_id == "g2-mid-mid"
    swapped = report._replace(g_roots=report.g_roots[::-1])
    with pytest.raises(ArithmeticError, match=r"g2-mid-mid.*outside \[0, 1\]"):
        lossy_outage(p, p.half_length(Scenario.PWL), swapped)


def test_outer_strip_at_an_f_root_against_mpmath():
    # with one root of each kind, the strip right of +l ends at the f root,
    # the edge of the circle about the guide end; seg keeps its accuracy
    # there, where an asin of the ratio to the radius was off by ~1e-9.
    # The 1e-14 bound was fixed before the run
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        p = random_reference(rng)
        result = evaluate(Scenario.PWL, "outage", p)
        value, case = result.value, result.case_id
        if not (case.startswith("g1f1-") and case.endswith("-right")):
            continue
        assert value == pytest.approx(outage_by_mpmath(p, Scenario.PWL), abs=1e-14, rel=0.0), case
        checked += 1


def test_fwl_just_above_the_all_outage_edge_is_one():
    # with C a few hundred ulps above h^2 both FWL roots sit within ulps of
    # -r and the outage is 1 to ~1e-20; the strip must stay accurate there
    p = SystemParams.reference(r=21.501066423565547, h=3.543302326829342,
                               alpha=0.002437885536358403, p_t=0.0017270690447568039)
    result = evaluate(Scenario.FWL, "outage", p)
    assert (result.value, result.case_id) == (1.0, "g1f1-mid-mid")
    h2 = p.h * p.h
    p_t = p.p_t * h2 / derive_constants(p).C
    for _ in range(400):
        p_t = math.nextafter(p_t, math.inf)
        q = p.with_(p_t=p_t)
        pc = _Pieces(q, q.r)
        report = _classify(pc)
        if not report.g_roots + report.f_roots:
            assert report.case_id == CASE_ALL_OUTAGE
            continue
        first, last = report.g_roots + report.f_roots
        value = _closed_form(pc, len(report.g_roots), first, last)
        assert abs(value - 1.0) <= 1e-12, (q.p_t, report.case_id, value)


def test_sqrt_clamp_window():
    # rounding below zero within 1e-12 of the scale is a root on its domain
    # edge; anything further is a numerical error
    assert _sqrt_clamped(-1e-13, 1.0) == 0.0
    assert _sqrt_clamped(4.0, 1.0) == 2.0
    with pytest.raises(ArithmeticError, match="beyond clamp window"):
        _sqrt_clamped(-1e-11, 1.0)


def test_phi_is_flat_where_delta_clamps_to_zero():
    # at a threshold zero under the guide both Delta ends clamp to 0, and the
    # Phi difference is 0 rather than the 0/0 of its cancellation-free form
    p = SystemParams.reference(gamma_t_db=104.0, alpha=0.03, l=12.5)
    pc = _Pieces(p, p.l)
    x = -pc.l + math.log(pc.C / pc.h2) / pc.alpha
    while pc.omega(x) > pc.h2:
        x = math.nextafter(x, math.inf)
    x_next = math.nextafter(x, math.inf)
    assert -pc.l < x < x_next < pc.l
    assert pc.phi_diff(x, x) == 0.0
    assert pc.phi_diff(x, x_next) == 0.0
