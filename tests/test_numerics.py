import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from pinchpass.numerics import (
    ChebyshevRule,
    classify_crossings,
    crossing_functions,
    dilog,
    dilog_diff,
    find_root_bracketed,
    gauss_chebyshev,
)
from pinchpass.analysis_partial import outage_pwl
from pinchpass.montecarlo import estimate_outage
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    alternating_series_li2_minus1,
    interval_label,
    li2_by_quadrature,
    random_reference,
    scan_crossings,
)


# ---------------------------------------------------------------------------
# dilogarithm
# ---------------------------------------------------------------------------

def test_dilog_trivial_and_domain():
    assert dilog(0.0) == 0.0
    with pytest.raises(ValueError):
        dilog(0.5)


def test_dilog_minus_one_against_series_oracle():
    series = alternating_series_li2_minus1(1000)
    assert dilog(-1.0) == pytest.approx(series, abs=1e-12)
    assert dilog(-1.0) == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-12)


def test_dilog_minus_ten_against_integral_oracle():
    assert dilog(-10.0) == pytest.approx(li2_by_quadrature(-10.0), abs=1e-10)


def test_dilog_against_mpmath_grid():
    for z in (-1e-8, -0.3, -0.5, -0.7, -1.0, -3.0, -25.0, -1e3, -1e6):
        expected = float(mpmath.polylog(2, z))
        assert dilog(z) == pytest.approx(expected, abs=1e-12, rel=1e-12)


def test_dilog_monotone_decreasing():
    grid = -np.logspace(-6, 6, 200)
    vals = [dilog(float(z)) for z in sorted(grid, reverse=True)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_dilog_diff_matches_direct_and_stays_stable():
    assert dilog_diff(-0.5, -2.0) == pytest.approx(dilog(-0.5) - dilog(-2.0), rel=1e-13)
    # nearby arguments: compare against the analytic derivative of Li2
    z = -37.0
    eps = z * 1e-9
    expected = -math.log1p(-z) / z * (-eps)
    assert dilog_diff(z - eps, z) == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# Gauss-Chebyshev
# ---------------------------------------------------------------------------

def test_rule_nodes_decreasing_symmetric():
    rule = ChebyshevRule.of_order(17)
    assert np.all(np.diff(rule.nodes) < 0)
    assert np.all(np.abs(rule.nodes) < 1)
    assert np.allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    assert rule.weight == pytest.approx(math.pi / 17)


def test_semicircle_integral_exact_at_16_nodes():
    rule = ChebyshevRule.of_order(16)
    value = rule.integrate(lambda t: np.sqrt(1.0 - t * t))
    assert value == pytest.approx(math.pi / 2.0, abs=1e-14)


def test_weighted_sum_reference_values():
    rule = ChebyshevRule.of_order(32)
    assert gauss_chebyshev(rule, np.ones_like) == pytest.approx(math.pi, rel=1e-14)
    assert gauss_chebyshev(rule, lambda t: t) == pytest.approx(0.0, abs=1e-14)


def test_interval_map_against_adaptive_quadrature():
    # generic smooth integrands converge at second order under the affine map
    f = lambda x: np.log1p(3.0 * np.exp(-0.08 * x))
    expected = quad(lambda x: math.log1p(3.0 * math.exp(-0.08 * x)), 2.0, 17.0)[0]
    assert ChebyshevRule.of_order(400).integrate(f, 2.0, 17.0) \
        == pytest.approx(expected, rel=1e-5)
    assert ChebyshevRule.of_order(1600).integrate(f, 2.0, 17.0) \
        == pytest.approx(expected, rel=1e-6)


def test_error_halves_as_nodes_double():
    # smooth log-kernel integrand of the lossless rate derivations
    q = 6.25
    target = quad(lambda t: math.sqrt(1 - t * t) * math.log1p(q * t * t), -1, 1,
                  limit=200, epsabs=1e-14)[0]
    errors = []
    for n in (8, 16, 32, 64, 128):
        val = ChebyshevRule.of_order(n).integrate(
            lambda t: np.sqrt(1 - t * t) * np.log1p(q * t * t))
        errors.append(abs(val - target))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 0.5 * coarse or fine < 1e-10


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

def test_root_simple_cases():
    assert find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0) \
        == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert find_root_bracketed(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="sign"):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_matches_lossless_crossing_closed_form():
    # with no attenuation the crossing equation reduces to a pure quadratic
    p = SystemParams.reference(gamma_t_db=106.0)
    d = derive_constants(p)
    root = math.sqrt(p.r ** 2 - d.C + p.h ** 2)
    fn = lambda x: d.C - p.h ** 2 - (p.r ** 2 - x * x)
    assert find_root_bracketed(fn, 0.0, p.r) == pytest.approx(root, abs=1e-10)
    assert find_root_bracketed(fn, -p.r, 0.0) == pytest.approx(-root, abs=1e-10)


# ---------------------------------------------------------------------------
# crossing classifier
# ---------------------------------------------------------------------------

CASE_PROBES = [
    # (gamma_t_db, alpha, l, expected case)
    (110.0, 0.005, 12.5, "g2-mid-mid"),
    (110.0, 0.02, 12.5, "g2-mid-right"),
    (107.0, 0.01, 12.5, "g2-left-right"),
    (107.0, 0.05, 15.0, "g1f1-left-mid"),
    (107.0, 0.025, 15.0, "g1f1-left-right"),
    (107.0, 0.04, 20.0, "g1f1-mid-mid"),
    (110.0, 0.045, 12.5, "g1f1-mid-right"),
    (104.0, 0.03, 12.5, "f2-left-mid"),
    (104.0, 0.01, 12.5, "f2-left-right"),
    (95.0, 0.02, 12.5, "all-outage"),
    (125.0, 0.001, 12.5, "no-outage"),
]


@pytest.mark.parametrize("gamma_t_db,alpha,l,expected", CASE_PROBES)
def test_classifier_hits_every_case(gamma_t_db, alpha, l, expected):
    p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha, l=l)
    report = classify_crossings(p, Scenario.PWL)
    assert report.case_id == expected


def test_classifier_degenerate_flags():
    p_low = SystemParams.reference(gamma_t_db=95.0)
    assert classify_crossings(p_low, Scenario.PWL).degenerate == 1.0
    p_high = SystemParams.reference(gamma_t_db=125.0, alpha=0.001)
    assert classify_crossings(p_high, Scenario.FWL).degenerate == 0.0
    with pytest.raises(ValueError):
        classify_crossings(p_low, Scenario.FWNL)


def test_classifier_roots_satisfy_equations():
    for gamma_t_db, alpha, l, _ in CASE_PROBES:
        p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha, l=l)
        f, g = crossing_functions(p, Scenario.PWL)
        report = classify_crossings(p, Scenario.PWL)
        for root in report.g_roots:
            assert abs(float(g(root.value))) <= 1e-9
        for root in report.f_roots:
            assert abs(float(f(root.value))) <= 1e-9


def test_threshold_curve_left_of_guide_does_not_overflow():
    # alpha*r far above the exp range: the middle branch, discarded left of
    # -l, once overflowed there and raised a RuntimeWarning
    p = SystemParams.reference(gamma_t_db=105.0, h=10.0, r=40.0, l=0.04, alpha=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = outage_pwl(p).value
        f, _ = crossing_functions(p, Scenario.PWL)
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
    for root, approx in zip(report.g_roots, g_scan):
        assert abs(root.value - approx) <= 2 * spacing
        assert root.interval == interval_label(approx, p.l)


def test_classifier_agrees_with_dense_scan_on_random_draws():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:  # the acceptance suite runs the full 200-draw version
        p = random_reference(rng)
        if p.alpha == 0.0:
            continue
        scenario = Scenario.PWL if checked % 2 else Scenario.FWL
        l = p.half_length(scenario)
        report = classify_crossings(p, scenario)
        g_scan, f_scan = scan_crossings(p, scenario, n=200_000)
        assert len(report.g_roots) == len(g_scan)
        assert len(report.f_roots) == len(f_scan)
        spacing = 2 * p.r / 200_000
        for root, approx in zip(report.g_roots, g_scan):
            if min(abs(approx - l), abs(approx + l)) > 2 * spacing:
                assert root.interval == interval_label(approx, l)
        checked += 1
