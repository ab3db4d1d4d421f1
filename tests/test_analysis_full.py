import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from pinchpass import outage_fwl, outage_fwnl, rate_fwl, rate_fwnl
from pinchpass.analysis import _chebyshev_nodes
from pinchpass.montecarlo import estimate_outage, estimate_rate
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    outage_by_integration,
    outage_by_mpmath,
    params_with_a,
    random_reference,
    rate_fwl_series,
)

SEED = 9090


# ---------------------------------------------------------------------------
# lossless full coverage
# ---------------------------------------------------------------------------

def test_outage_fwnl_saturated_branches():
    p = SystemParams.reference()
    assert outage_fwnl(params_with_a(p.r ** 2 * 1.01)).value == 0.0
    assert outage_fwnl(params_with_a(-1.0)).value == 1.0


def test_outage_fwnl_symmetric_point():
    p = params_with_a(SystemParams.reference().r ** 2 / 2.0)
    # hand evaluation at A = r^2/2: 1/2 - 1/pi
    assert outage_fwnl(p).value == pytest.approx(0.5 - 1.0 / math.pi, abs=1e-12)


def test_outage_fwnl_continuous_at_branch_edges():
    r = SystemParams.reference().r
    assert outage_fwnl(params_with_a((1e-10 * r) ** 2)).value == pytest.approx(1.0, abs=1e-9)
    assert outage_fwnl(params_with_a(r * r * (1 - 1e-8))).value == pytest.approx(0.0, abs=1e-9)


def test_outage_fwnl_against_mpmath():
    # against a 40-digit quadrature of the alpha = 0 threshold curve, up to
    # A within 6e-8 of r^2 = 625, where the outage chords span |x| < 2.5e-4;
    # the oracle cuts at their ends in closed form, narrower than any scan
    # step.  The bound, 2e-15, is about nine ulps of 1
    r = SystemParams.reference().r
    for a in (1e-6 * r * r, 0.1 * r * r, 0.5 * r * r, 0.9 * r * r, (1.0 - 1e-8) * r * r,
              624.99999994):
        p = params_with_a(a)
        reference = outage_by_mpmath(p.with_(alpha=0.0), Scenario.FWNL, dps=40)
        assert abs(outage_fwnl(p).value - reference) <= 2e-15, a


def test_rate_fwnl_limits():
    p = SystemParams.reference()
    tiny_power = p.with_(p_t=1e-30)
    assert rate_fwnl(tiny_power).value == pytest.approx(0.0, abs=1e-12)
    tiny_region = p.with_(r=1e-6, l=1e-6)
    d = derive_constants(tiny_region)
    ceiling = math.log2(1.0 + d.eta * p.p_t / (p.sigma2 * p.h ** 2))
    assert rate_fwnl(tiny_region).value == pytest.approx(ceiling, rel=1e-9)


def test_rate_fwnl_against_mc_and_2d_quadrature():
    p = SystemParams.reference(gamma_t_db=100.0)
    value = rate_fwnl(p).value

    est = estimate_rate(Scenario.FWNL, p, 10_000_000, SEED)
    assert abs(value - est.mean) <= 3 * est.stderr

    d = derive_constants(p)
    k = d.eta * p.p_t / p.sigma2
    integral, _ = dblquad(
        lambda y, x: math.log2(1.0 + k / (y * y + p.h ** 2)),
        -p.r, p.r,
        lambda x: 0.0, lambda x: math.sqrt(p.r ** 2 - x ** 2),
        epsabs=1e-10, epsrel=1e-10)
    expected = 2.0 * integral / (math.pi * p.r ** 2)
    assert value == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# lossy full coverage
# ---------------------------------------------------------------------------

def test_outage_fwl_reduces_to_lossless():
    p = SystemParams.reference(gamma_t_db=105.0)
    lossless = outage_fwnl(p).value
    assert outage_fwl(p.with_(alpha=0.0)).value == lossless
    assert outage_fwl(p.with_(alpha=1e-9)).value == pytest.approx(lossless, abs=1e-6)


def test_outage_fwl_saturates_when_threshold_beats_feed_power():
    # C <= h^2: even the closest device fails the threshold on every chord
    p = SystemParams.reference(gamma_t_db=95.0)
    result = outage_fwl(p)
    assert result.value == 1.0
    assert result.case_id == "all-outage"


def test_outage_fwl_against_mc_over_snr_grid():
    for gamma_t_db in (90.0, 95.0, 100.0, 105.0, 110.0, 115.0, 120.0):
        p = SystemParams.reference(gamma_t_db=gamma_t_db)
        value = outage_fwl(p).value
        est = estimate_outage(Scenario.FWL, p, 1_000_000, SEED + int(gamma_t_db))
        assert abs(value - est.mean) <= 3 * est.stderr + 1e-4


def test_outage_fwl_against_integration_oracle():
    for gamma_t_db in (102.0, 106.0, 110.0):
        for alpha in (0.004, 0.02, 0.05):
            p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha)
            assert outage_fwl(p).value == pytest.approx(
                outage_by_integration(p, Scenario.FWL), abs=1e-9)


# alpha*r in the hundreds of thousands: omega(b) - h^2 at the threshold zero b
# carries a rounding error far above 1e-12*(C + h^2)
LARGE_ALPHA_R = [
    (88.19051620243454, 2416.2065308571932, 1.5785098918828047, 23.31985633492541,
     0.013121342099646799),
    (94.44629886817893, 1305.1132431132387, 4.385398614603101, 35.72231089474223,
     8.139665124401032e-06),
]


@pytest.mark.parametrize("gamma_t_db,r,h,alpha,l_frac", LARGE_ALPHA_R)
def test_outage_fwl_closed_form_at_large_alpha_r(gamma_t_db, r, h, alpha, l_frac):
    p = SystemParams.reference(gamma_t_db=gamma_t_db, r=r, h=h, alpha=alpha, l=l_frac * r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = outage_fwl(p)
    assert res.case_id == "g1f1-mid-mid"
    assert res.value == pytest.approx(outage_by_integration(p, Scenario.FWL), abs=1e-6)


def test_rate_fwl_matches_series_dilog_reference():
    # the library integrates over x with the analytic chord integral; the
    # reference is the paper's Chebyshev sum over y of dilog differences on
    # the power-series/Landen/inversion dilogarithm
    rng = np.random.default_rng(SEED + 3)
    for _ in range(300):
        p = random_reference(rng)
        for nodes in (200, 2000):
            assert rate_fwl(p, nodes).value == pytest.approx(rate_fwl_series(p, nodes),
                                                             rel=1e-12)


def test_rate_fwl_reduces_to_lossless():
    p = SystemParams.reference(gamma_t_db=108.0)
    lossless = rate_fwnl(p).value
    assert rate_fwl(p.with_(alpha=0.0)).value == lossless
    nearly = rate_fwl(p.with_(alpha=1e-9), nodes=400).value
    assert nearly == pytest.approx(lossless, rel=1e-4)


def test_rate_fwl_against_mc():
    p = SystemParams.reference(gamma_t_db=110.0)
    est = estimate_rate(Scenario.FWL, p, 10_000_000, SEED)
    assert abs(rate_fwl(p).value - est.mean) <= 3 * est.stderr


# h << r: the log-SNR peaks within ~h of the waveguide, which a quadrature
# over the transverse offset resolves only with thousands of nodes
@pytest.mark.parametrize("overrides", [dict(gamma_t_db=110.0, h=1e-3),
                                       dict(gamma_t_db=105.0, r=1e4, l=5e3)])
def test_rate_fwl_against_mc_when_height_is_small(overrides):
    p = SystemParams.reference(**overrides)
    est = estimate_rate(Scenario.FWL, p, 2_000_000, 20260810)
    assert abs(rate_fwl(p).value - est.mean) <= 3 * est.stderr


def test_attenuation_only_reduces_rate():
    for gamma_t_db in np.linspace(90.0, 125.0, 8):
        p = SystemParams.reference(gamma_t_db=float(gamma_t_db))
        assert rate_fwl(p).value < rate_fwnl(p).value


def test_outage_values_stay_probabilities():
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        p = random_reference(rng)
        for fn in (outage_fwnl, outage_fwl):
            value = fn(p).value
            assert 0.0 <= value <= 1.0


def test_outage_monotonicity_in_power_threshold_attenuation():
    base = SystemParams.reference()
    powers = np.geomspace(base.p_t / 300, base.p_t * 300, 20)
    for alpha in np.linspace(0.0, 0.05, 20):
        values = [outage_fwl(base.with_(p_t=float(pt), alpha=float(alpha))).value
                  for pt in powers]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    thresholds = np.geomspace(1.0, 1e4, 20)
    alphas = np.linspace(0.0, 0.05, 20)
    for pt in np.geomspace(base.p_t / 10, base.p_t * 10, 20):
        v_thr = [outage_fwl(base.with_(p_t=float(pt), gamma_th=float(g))).value
                 for g in thresholds]
        assert all(b >= a - 1e-12 for a, b in zip(v_thr, v_thr[1:]))
        v_alpha = [outage_fwl(base.with_(p_t=float(pt), alpha=float(a))).value
                   for a in alphas]
        assert all(b >= a - 1e-12 for a, b in zip(v_alpha, v_alpha[1:]))


# ---------------------------------------------------------------------------
# Gauss-Chebyshev nodes of the chord-rate kernel
# ---------------------------------------------------------------------------

def chebyshev_integral(f, n: int, a: float = -1.0, b: float = 1.0) -> float:
    # the plain integral of f over [a, b] from the order-n nodes, weight pi/n,
    # through the affine node map
    nodes, sines = _chebyshev_nodes(n)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * math.pi / n * float(np.sum(sines * f(x)))


def test_rule_nodes_decreasing_symmetric():
    # exactly mirrored (an odd order's center node is 0), and each node and
    # sine within 1e-15 of cos and sin of its own angle
    for n in (2, 3, 17, 200, 201, 2000):
        nodes, sines = _chebyshev_nodes(n)
        angles = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
        assert np.all(np.diff(nodes) < 0)
        assert np.all(np.abs(nodes) < 1)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(sines, sines[::-1])
        assert np.allclose(nodes, np.cos(angles), rtol=0.0, atol=1e-15)
        assert np.allclose(sines, np.sin(angles), rtol=0.0, atol=1e-15)
        if n <= 17:     # sqrt(1 - t^2) cancels near t = 1 at higher orders
            assert np.allclose(sines, np.sqrt(1.0 - nodes * nodes), rtol=0.0, atol=1e-15)


def test_rule_is_cached_and_read_only():
    nodes, sines = _chebyshev_nodes(23)
    assert _chebyshev_nodes(23)[0] is nodes and _chebyshev_nodes(23)[1] is sines
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        sines[:] = 1.0


def test_interval_map_against_adaptive_quadrature():
    # generic smooth integrands converge at second order under the affine map
    f = lambda x: np.log1p(3.0 * np.exp(-0.08 * x))
    expected = quad(lambda x: math.log1p(3.0 * math.exp(-0.08 * x)), 2.0, 17.0)[0]
    assert chebyshev_integral(f, 400, 2.0, 17.0) == pytest.approx(expected, rel=1e-5)
    assert chebyshev_integral(f, 1600, 2.0, 17.0) == pytest.approx(expected, rel=1e-6)


def test_error_halves_as_nodes_double():
    # smooth log-kernel integrand of the lossless rate derivations
    q = 6.25
    target = quad(lambda t: math.sqrt(1 - t * t) * math.log1p(q * t * t), -1, 1,
                  limit=200, epsabs=1e-14)[0]
    errors = []
    for n in (8, 16, 32, 64, 128):
        val = chebyshev_integral(lambda t: np.sqrt(1 - t * t) * np.log1p(q * t * t), n)
        errors.append(abs(val - target))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= 0.5 * coarse or fine < 1e-10
