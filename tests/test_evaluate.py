import math
import re
import sys
import warnings

import numpy as np
import pytest

from pinchpass import (
    MetricResult,
    Scenario,
    SystemParams,
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
from pinchpass.cli import EXIT_CONFIG, main
from oracles import extreme_reference, random_reference

PUBLIC = {
    (Scenario.FWNL, "outage"): lambda p, n: outage_fwnl(p),
    (Scenario.FWL, "outage"): lambda p, n: outage_fwl(p),
    (Scenario.PWNL, "outage"): lambda p, n: outage_pwnl(p),
    (Scenario.PWL, "outage"): lambda p, n: outage_pwl(p),
    (Scenario.FWNL, "rate"): lambda p, n: rate_fwnl(p),
    (Scenario.FWL, "rate"): rate_fwl,
    (Scenario.PWNL, "rate"): rate_pwnl,
    (Scenario.PWL, "rate"): rate_pwl,
}
CONFIGS = [SystemParams.reference(gamma_t_db=g, alpha=a, l=l)
           for g in (98.0, 105.0, 112.0) for a in (0.0, 0.02) for l in (6.0, 25.0)]


@pytest.mark.parametrize("scenario,metric", list(PUBLIC))
def test_evaluate_equals_public_function(scenario, metric):
    for p in CONFIGS:
        for nodes in (200, 2000):
            got = evaluate(scenario, metric, p, nodes)
            want = PUBLIC[scenario, metric](p, nodes)
            assert got == want
            assert got.scenario is scenario


@pytest.mark.parametrize("scenario,metric", list(PUBLIC))
def test_value_is_a_python_float(scenario, metric):
    for alpha in (0.0, 0.02):
        assert type(evaluate(scenario, metric, SystemParams.reference(alpha=alpha)).value) \
            is float


def test_lossy_scenario_at_zero_alpha_is_its_relabelled_twin():
    p = SystemParams.reference(alpha=0.0, l=9.0)
    for lossy, twin in ((Scenario.FWL, Scenario.FWNL), (Scenario.PWL, Scenario.PWNL)):
        for metric in ("outage", "rate"):
            got, ref = evaluate(lossy, metric, p), evaluate(twin, metric, p)
            assert (got.value, got.case_id, got.quadrature_nodes) \
                == (ref.value, ref.case_id, ref.quadrature_nodes)


def test_metric_result_fields_order_and_defaults():
    assert MetricResult._fields == ("value", "scenario", "case_id", "quadrature_nodes")
    assert MetricResult._field_defaults == {"case_id": None, "quadrature_nodes": None}
    result = MetricResult(0.25, Scenario.PWL)
    assert (result.value, result.scenario, result.case_id, result.quadrature_nodes) \
        == (0.25, Scenario.PWL, None, None)


def test_metric_result_repr_as_in_the_quick_start():
    result = outage_pwl(SystemParams.reference(gamma_t_db=105.0, alpha=0.02, l=12.5))
    assert repr(result).startswith("MetricResult(value=")
    assert repr(result) == (f"MetricResult(value={result.value!r}, scenario={Scenario.PWL!r}, "
                            f"case_id={result.case_id!r}, quadrature_nodes=None)")


def test_metric_result_is_an_immutable_tuple():
    result = rate_pwl(SystemParams.reference(), 200)
    with pytest.raises(AttributeError):
        result.value = 0.0
    value, scenario, case_id, nodes = result
    assert (scenario, case_id, nodes) == (Scenario.PWL, None, 200)
    assert result == (value, scenario, case_id, nodes)


def test_unknown_metric_is_rejected():
    p = SystemParams.reference()
    for scenario in Scenario:
        with pytest.raises(ValueError, match="metric must be 'outage' or 'rate'"):
            evaluate(scenario, "throughput", p)


def test_rejected_node_counts_still_raise(tmp_path, capsys):
    for alpha in (0.0, 0.02):
        p = SystemParams.reference(alpha=alpha)
        for call in (lambda: rate_fwl(p, nodes=1), lambda: rate_pwl(p, nodes=1),
                     lambda: rate_pwnl(p, nodes=1),
                     lambda: evaluate(Scenario.FWL, "rate", p, 1),
                     lambda: evaluate(Scenario.PWNL, "rate", p, 1),
                     lambda: evaluate(Scenario.PWL, "rate", p, 1),
                     lambda: optimal_length_search(p, "rate", nodes=1)):
            with pytest.raises(ValueError, match="need at least 2 nodes, got 1"):
                call()
        # the exact lossless full-coverage rate and the outages take no nodes
        assert evaluate(Scenario.FWNL, "rate", p, 1) == rate_fwnl(p)
        assert evaluate(Scenario.PWL, "outage", p, 1) == outage_pwl(p)
    # the CLI rejects such a count when it parses --nodes, before any work
    assert main(["validate", "--nodes", "1"]) == EXIT_CONFIG
    assert "argument --nodes: must be at least 2, got 1" in capsys.readouterr().err
    assert main(["figure", "6", "--nodes", "1", "--no-mc", "--out", str(tmp_path)]) \
        == EXIT_CONFIG
    assert "argument --nodes: must be at least 2, got 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda p, n: rate_pwl(p, nodes=n), "nodes", id="rate_pwl-nodes"),
    pytest.param(lambda p, n: evaluate(Scenario.FWL, "rate", p, n), "nodes",
                 id="evaluate-nodes"),
    pytest.param(lambda p, n: optimal_length_search(p, "rate", nodes=n), "nodes",
                 id="search-nodes"),
    pytest.param(lambda p, n: optimal_length_search(p, "rate", grid_spec=(0.5, 25.0, n)),
                 "grid steps", id="search-steps"),
])
def test_counts_must_be_integers_naming_the_argument(call, name):
    # a fractional count used to fail deep inside numpy with a TypeError
    p = SystemParams.reference()
    for count in (200.0, np.float64(200.0), "200"):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got "
                                                       f"{count!r}")):
            call(p, count)
    assert call(p, np.int64(200)) == call(p, 200)


def _ordering_violations(p):
    # the orderings the SNR imposes exactly: loss lowers every SNR, a higher
    # alpha lowers it further, and a higher p_t raises it
    outage = {s: evaluate(s, "outage", p).value for s in Scenario}
    rate = {(s, n): evaluate(s, "rate", p, n).value for s in Scenario for n in (200, 2000)}
    lossier, louder = p.with_(alpha=1.01 * p.alpha), p.with_(p_t=1.01 * p.p_t)
    bad = []
    for lossy, lossless in ((Scenario.PWL, Scenario.PWNL), (Scenario.FWL, Scenario.FWNL)):
        if outage[lossy] < outage[lossless]:
            bad.append(f"{lossy.name} outage below {lossless.name}")
        if evaluate(lossy, "outage", lossier).value < outage[lossy]:
            bad.append(f"{lossy.name} outage falls with alpha")
        for n in (200, 2000):
            if rate[lossy, n] > rate[lossless, n]:
                bad.append(f"{lossy.name} rate above {lossless.name} at {n} nodes")
            if evaluate(lossy, "rate", lossier, n).value > rate[lossy, n]:
                bad.append(f"{lossy.name} rate rises with alpha at {n} nodes")
    for s in Scenario:
        if evaluate(s, "outage", louder).value > outage[s]:
            bad.append(f"{s.name} outage rises with p_t")
    return bad


def test_snr_orderings_hold_exactly_on_extreme_draws():
    # closed forms only, no Monte-Carlo: the signs an oracle at 3 sigma can
    # miss, over the extreme set (r up to 1e4 m, alpha up to 50 /m)
    rng = np.random.default_rng(11)
    violations = {}
    for i in range(3000):
        p = extreme_reference(rng)
        if bad := _ordering_violations(p):
            violations[i] = (p, bad)
    assert violations == {}


BIG = math.sqrt(sys.float_info.max)     # the largest length whose square is finite


def _fails(raises, reason):
    # a configuration the closed forms fail on stays, marked with what goes
    # wrong; strict, so a fix shows
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


# configurations just inside each bound SystemParams checks, over the reference
EDGE_CONFIGS = [
    pytest.param(dict(r=BIG / 1.01, l=BIG / 2), id="r2-near-max", marks=_fails(
        AssertionError, "the FWNL rate reads -1.3e-15: its closed form cancels terms near 5")),
    pytest.param(dict(r=BIG / 1.01, l=BIG / 2, p_t=1e300), id="r2-near-max-loud", marks=_fails(
        RuntimeWarning, "the chord kernel's scale 2 l sum overflows, and PWNL and PWL rates "
                        "read nan")),
    # r^2 + h^2 is finite, 0.69 of the float maximum; l = r/2
    pytest.param(dict(r=BIG / 1.5, h=BIG / 2), id="r2-plus-h2-near-max", marks=_fails(
        AssertionError, "the FWNL rate reads -8.0e-17: the cancellation of r2-near-max")),
    pytest.param(dict(r=BIG / 1.01, h=1.0, l=BIG / 2), id="r2-near-max-low-guide"),
    pytest.param(dict(r=1e150, h=1.01e150 / BIG, l=5e149), id="r-over-h-squared-near-max"),
    pytest.param(dict(sigma2=1e-300, h=1e-8, p_t=1e-290), id="sigma2-h2-near-zero"),
    pytest.param(dict(sigma2=5e-324, p_t=1e-313), id="subnormal-sigma2"),
    pytest.param(dict(sigma2=5e-324, p_t=1e-300), id="subnormal-sigma2-loud"),
    pytest.param(dict(sigma2=1e-300, gamma_th=1e-20, p_t=1e-300), id="sigma2-gamma_th-near-zero"),
    # the unit-distance SNR e = eta p_t/sigma2 = C gamma_th is 9.0e307
    pytest.param(dict(p_t=1.238e302, gamma_th=1e10), id="unit-snr-near-max"),
    # and the unit-height SNR e/h^2 is 8.0e307
    pytest.param(dict(p_t=2.751e301, gamma_th=1e10, h=0.5), id="unit-height-snr-near-max"),
    pytest.param(dict(f_c=BIG / 1.01, p_t=1e300), id="f_c2-near-max"),
    pytest.param(dict(f_c=1e-140, gamma_t_db=100.0), id="f_c-low"),
    pytest.param(dict(c=BIG / 1.01), id="c2-near-max"),
    pytest.param(dict(c=2e-154), id="c2-near-min"),
    pytest.param(dict(c=1e-160), id="c2-subnormal"),
    pytest.param(dict(p_t=1e-320), id="p_t-1e-320"),
    pytest.param(dict(p_t=1e300), id="p_t-1e300"),
    pytest.param(dict(alpha=1e-300), id="alpha-1e-300"),
    pytest.param(dict(alpha=50.0), id="alpha-50"),
    pytest.param(dict(alpha=1e300), id="alpha-1e300"),
    pytest.param(dict(l=25e-6), id="l-1e-6-r"),
    pytest.param(dict(l=25.0), id="l-r"),
    pytest.param(dict(l=25e-6, alpha=1e300), id="l-1e-6-r-alpha-1e300"),
]


@pytest.mark.parametrize("overrides", EDGE_CONFIGS)
def test_closed_forms_stay_in_range_at_the_edges_of_the_domain(overrides):
    # every closed form returns a finite outage in [0, 1] or rate >= 0, or
    # raises ArithmeticError naming its case, and numpy warns of nothing
    p = SystemParams.reference(**overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scenario, metric in PUBLIC:
            try:
                value = evaluate(scenario, metric, p, 200).value
            except ArithmeticError as exc:
                assert re.search(r"case '[\w-]+'", str(exc)), (scenario, metric, exc)
                continue
            assert math.isfinite(value) and value >= 0.0, (scenario, metric, value)
            assert metric == "rate" or value <= 1.0, (scenario, metric, value)


@pytest.mark.parametrize("overrides,quantity", [
    # r^2 and h^2 are finite, their sum is not
    pytest.param(dict(r=BIG / 1.01, h=BIG / 4, l=BIG / 2), "r^2 + h^2 = inf",
                 id="r2-plus-h2-overflows"),
    # C = eta p_t/(sigma2 gamma_th) is finite, the unit-distance SNR C gamma_th is not
    pytest.param(dict(p_t=1.4e304, gamma_th=1e10), "e = eta*p_t/sigma2 = inf",
                 id="unit-snr-overflows"),
    # e is finite, the unit-height SNR e/h^2, which bounds every e/(rho^2 + h^2), is not
    pytest.param(dict(p_t=1.238e302, gamma_th=1e10, h=0.5),
                 "e/h^2 = eta*p_t/(sigma2*h^2) = inf", id="unit-height-snr-overflows"),
])
def test_configurations_whose_rate_quantities_overflow_are_rejected(overrides, quantity):
    with pytest.raises(ValueError, match=re.escape(f"invalid SystemParams: {quantity}")):
        SystemParams.reference(**overrides)


def test_carrier_frequency_whose_loss_factor_overflows_is_rejected():
    with pytest.raises(ValueError, match=re.escape("eta = c^2/(16 pi^2 f_c^2) = inf")):
        SystemParams.reference(f_c=1e-150)


# ---------------------------------------------------------------------------
# scale covariance: each value depends on the configuration only through
# h/r, l/r, alpha r, e/r^2 and gamma_th, and rescaling by a power of two is
# exact in binary floating point, so the rescaled values are bit-identical
# ---------------------------------------------------------------------------

SCALES = (4.0, 1.0 / 16.0, 1024.0)


def _scale_draws(count):
    draws = []
    for draw, seed in ((random_reference, 19), (extreme_reference, 20)):
        rng = np.random.default_rng(seed)
        draws += [draw(rng) for _ in range(count)]
    return draws


def _rescaled(p, k):
    # lengths times k, alpha over k and p_t times k^2 keep every group
    return p.with_(r=k * p.r, h=k * p.h, l=k * p.l, alpha=p.alpha / k, p_t=k * k * p.p_t)


def test_closed_forms_are_bit_identical_under_a_power_of_two_rescale():
    for p in _scale_draws(200):
        want = {job: evaluate(*job, p) for job in PUBLIC}
        for k in SCALES:
            q = _rescaled(p, k)
            for job, result in want.items():
                got = evaluate(*job, q)
                assert (got.value.hex(), got.case_id) == (result.value.hex(), result.case_id), \
                    (job, p, k)


@pytest.mark.parametrize("metric", ["rate", "outage"])
def test_length_search_scales_by_a_power_of_two_exactly(metric):
    # the search's grid and tolerances are in units of r, so every length it
    # visits, and the optimum it returns, scales by k and every value holds
    for p in _scale_draws(30):
        base = optimal_length_search(p, metric)
        for k in SCALES:
            res = optimal_length_search(_rescaled(p, k), metric)
            assert res.grid_end == base.grid_end, (p, k)
            assert (res.best_l, res.best_value) == (k * base.best_l, base.best_value), (p, k)
            assert res.grid == tuple((k * l, v) for l, v in base.grid), (p, k)
