import re

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
from oracles import extreme_reference

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
