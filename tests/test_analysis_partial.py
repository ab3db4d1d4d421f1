import ast
import math
from pathlib import Path

import numpy as np
import pytest

from pinchpass import (
    analysis,
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
from pinchpass.montecarlo import estimate_outage, estimate_rate
from pinchpass.params import Scenario, SystemParams, derive_constants
from oracles import (
    CASE_PROBES,
    CLOSED_FORM_CASES,
    extreme_reference,
    outage_by_integration,
    outage_by_mpmath,
    params_with_a,
    random_reference,
    rate_chord_full_rule,
    rate_chord_lossless_full_rule,
)

SEED = 4321


# ---------------------------------------------------------------------------
# lossless partial coverage
# ---------------------------------------------------------------------------

def test_outage_pwnl_saturated_branches():
    p = SystemParams.reference(gamma_t_db=95.0, l=10.0)
    assert outage_pwnl(p).value == 1.0
    assert outage_pwnl(SystemParams.reference(gamma_t_db=112.0, l=10.0)).value == 0.0


def test_outage_pwnl_degenerates_to_full_coverage():
    for gamma_t_db in (100.0, 103.0, 105.0, 108.0):
        p = SystemParams.reference(gamma_t_db=gamma_t_db, l=25.0)
        assert outage_pwnl(p).value == pytest.approx(outage_fwnl(p).value, abs=1e-9)


def test_outage_pwnl_against_mc():
    p = SystemParams.reference(gamma_t_db=100.0, l=10.0)
    est = estimate_outage(Scenario.PWNL, p, 1_000_000, SEED)
    assert abs(outage_pwnl(p).value - est.mean) <= 3 * est.stderr + 1e-4


@pytest.mark.parametrize("l_frac", [1e-6, 1e-3, 0.3, 0.9])
def test_outage_pwnl_against_mpmath_across_the_seams(l_frac):
    # every branch, and A within a few ulps of both seams (r - l)^2 and
    # r^2 - l^2, against a 40-digit quadrature of the alpha = 0 threshold
    # curve; the bound, 2e-15, is about nine ulps of 1
    base = SystemParams.reference(r=25.0, l=25.0 * l_frac)
    r, l = base.r, base.l
    targets = [0.25 * (r - l) ** 2, 0.5 * ((r - l) ** 2 + r * r - l * l),
               0.5 * (r * r - l * l + r * r)]
    configs = [params_with_a(a, base) for a in targets]
    for seam in ((r - l) ** 2, r * r - l * l):
        p = params_with_a(seam, base)
        configs += [p.with_(p_t=p.p_t * (1.0 + k * 2.0 ** -52)) for k in (-3, 0, 3)]
    cases = set()
    for p in configs:
        result = outage_pwnl(p)
        cases.add(result.case_id)
        reference = outage_by_mpmath(p.with_(alpha=0.0), Scenario.PWNL, dps=40)
        assert abs(result.value - reference) <= 2e-15, result
    assert cases == {"stadium", "stadium-caps", "band"}


def test_lossless_outages_stay_probabilities_just_below_the_band_edge():
    # within ulps of A = r^2 the covered area rounds to the whole disk and
    # past it; the outage must not read below 0
    rng = np.random.default_rng(3)
    for _ in range(60):
        r = rng.uniform(5.0, 40.0)
        base = SystemParams.reference(r=r, l=rng.uniform(1e-3, 1.0) * r)
        for t in (1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-14):
            p = params_with_a(t * r * r, base)
            for k in range(-20, 21, 4):
                q = p.with_(p_t=p.p_t * (1.0 + k * 2.0 ** -52))
                for outage in (outage_fwnl, outage_pwnl):
                    assert 0.0 <= outage(q).value <= 1e-12


def test_rate_pwnl_degenerates_to_full_coverage():
    p = SystemParams.reference(gamma_t_db=107.0, l=25.0)
    assert rate_pwnl(p, nodes=2000).value == pytest.approx(rate_fwnl(p).value, rel=1e-6)


def test_rate_pwnl_limits_and_mc():
    p = SystemParams.reference(gamma_t_db=105.0, l=15.0)
    assert rate_pwnl(p.with_(p_t=1e-30)).value == pytest.approx(0.0, abs=1e-12)
    est = estimate_rate(Scenario.PWNL, p, 10_000_000, SEED)
    assert abs(rate_pwnl(p).value - est.mean) <= 3 * est.stderr


# ---------------------------------------------------------------------------
# lossy partial coverage
# ---------------------------------------------------------------------------

def test_outage_pwl_degenerate_shortcuts():
    assert outage_pwl(SystemParams.reference(gamma_t_db=95.0)).value == 1.0
    assert outage_pwl(SystemParams.reference(gamma_t_db=125.0, alpha=0.001)).value == 0.0


def test_outage_pwl_reduces_to_lossless():
    p = SystemParams.reference(gamma_t_db=104.0, l=9.0)
    lossless = outage_pwnl(p).value
    assert outage_pwl(p.with_(alpha=0.0)).value == lossless
    assert outage_pwl(p.with_(alpha=1e-9)).value == pytest.approx(lossless, abs=1e-6)


def test_outage_pwl_against_mc_over_lengths():
    for i, l in enumerate((5.0, 10.0, 15.0, 20.0, 25.0)):
        p = SystemParams.reference(gamma_t_db=105.0, l=l)
        est = estimate_outage(Scenario.PWL, p, 1_000_000, SEED + i)
        assert abs(outage_pwl(p).value - est.mean) <= 3 * est.stderr + 1e-4


@pytest.mark.parametrize("gamma_t_db,alpha,l,expected", CASE_PROBES)
def test_outage_pwl_every_case_against_integration(gamma_t_db, alpha, l, expected):
    p = SystemParams.reference(gamma_t_db=gamma_t_db, alpha=alpha, l=l)
    result = outage_pwl(p)
    assert result.case_id == expected
    assert result.value == pytest.approx(outage_by_integration(p, Scenario.PWL), abs=1e-9)


def test_integration_oracle_shares_no_library_code():
    # the oracles may take parameters and constants from the library, but
    # not the threshold curve, classifier or closed forms they check
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {m for m in modules if m.split(".")[0] == "pinchpass"} == {"pinchpass.params"}


def test_outage_pwl_dispatch_exhaustive_over_random_draws():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(10_000):
        p = random_reference(rng)
        result = outage_pwl(p)
        assert 0.0 <= result.value <= 1.0
        assert result.case_id in CLOSED_FORM_CASES + ("all-outage", "no-outage")
        seen.add(result.case_id)
    assert {"all-outage", "no-outage"} <= seen
    assert len(seen) >= 8


def test_outage_pwl_continuous_across_case_seams():
    p = SystemParams.reference(l=12.5)
    grid_db = np.linspace(95.0, 125.0, 301)
    cases, powers = [], []
    for g in grid_db:
        q = p.with_(p_t=p.sigma2 * 10 ** (g / 10.0))
        cases.append(outage_pwl(q).case_id)
        powers.append(q.p_t)
    seams = 0
    for (c1, c2, p1, p2) in zip(cases, cases[1:], powers, powers[1:]):
        if c1 == c2:
            continue
        lo, hi = p1, p2
        for _ in range(60):  # bisect the dispatch boundary in transmit power
            mid = 0.5 * (lo + hi)
            if outage_pwl(p.with_(p_t=mid)).case_id == c1:
                lo = mid
            else:
                hi = mid
        below = outage_pwl(p.with_(p_t=lo * (1 - 1e-9))).value
        above = outage_pwl(p.with_(p_t=hi * (1 + 1e-9))).value
        assert abs(above - below) < 1e-6
        seams += 1
    assert seams >= 3  # the sweep must actually cross several dispatch cases


def _ulp_steps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def test_outage_pwl_closed_form_ulp_by_ulp_across_the_outer_edges():
    # At an outer edge the threshold zero sits on the disk boundary: f(-r) = 0
    # where C - h^2 = (r - l)^2, and f(r) = 0 where C = ((r - l)^2 + h^2)
    # exp(2 alpha l).  Stepping p_t (C is proportional to it) ulp by ulp
    # across each edge, every configuration still has two roots and a closed
    # form.  The 1e-8 bound, fixed before the run, leaves room for the
    # closed forms' asin imprecision at a threshold zero (up to ~5e-9).
    rng = np.random.default_rng(SEED + 7)
    for _ in range(3):
        p = random_reference(rng)
        C, h2, gap2 = derive_constants(p).C, p.h * p.h, (p.r - p.l) ** 2
        for C_edge in (gap2 + h2, (gap2 + h2) * math.exp(2.0 * p.alpha * p.l)):
            p_t = p.p_t * C_edge / C
            for k in range(-4, 5):
                q = p.with_(p_t=_ulp_steps(p_t, k))
                result = outage_pwl(q)
                assert result.case_id in CLOSED_FORM_CASES
                assert result.value == pytest.approx(outage_by_mpmath(q, Scenario.PWL),
                                                     abs=1e-8, rel=0.0)


def test_outage_pwl_closed_form_ulp_by_ulp_across_the_guide_end_zero():
    # Where C exp(-2 alpha l) = h^2 the threshold zero sits at +l: f(l) = K2
    # = 0.  Just below, the zero is under the guide, and rounding must not
    # put it past +l, where the outer arc divides by sqrt(K2).  Stepping p_t
    # ulp by ulp across, every configuration has a closed form, the outage
    # is continuous, and it agrees with mpmath at the seam.  The 1e-8
    # bounds, fixed before the run, leave room for the asin arcs (~5e-9)
    rng = np.random.default_rng(SEED + 9)
    for _ in range(20):
        p = random_reference(rng)
        C, h2 = derive_constants(p).C, p.h * p.h
        p_t = p.p_t * h2 * math.exp(2.0 * p.alpha * p.l) / C
        values = []
        for k in range(-8, 9):
            result = outage_pwl(p.with_(p_t=_ulp_steps(p_t, k)))
            assert result.case_id in CLOSED_FORM_CASES
            values.append(result.value)
        assert max(values) - min(values) <= 1e-8
        assert values[8] == pytest.approx(outage_by_mpmath(p.with_(p_t=p_t), Scenario.PWL),
                                          abs=1e-8, rel=0.0)


def test_rate_pwl_reduces_to_lossless_and_full():
    p = SystemParams.reference(gamma_t_db=106.0, l=11.0)
    assert rate_pwl(p.with_(alpha=0.0)).value == rate_pwnl(p).value
    nearly = rate_pwl(p.with_(alpha=1e-9), nodes=400).value
    assert nearly == pytest.approx(rate_pwnl(p, nodes=400).value, rel=1e-4)
    full = p.with_(l=25.0)
    assert rate_pwl(full, nodes=400).value == pytest.approx(
        rate_fwl(full, nodes=400).value, rel=1e-4)


def test_rate_pwl_against_mc():
    p = SystemParams.reference(gamma_t_db=110.0, l=12.5)
    est = estimate_rate(Scenario.PWL, p, 10_000_000, SEED)
    assert abs(rate_pwl(p).value - est.mean) <= 3 * est.stderr


def test_rates_nonnegative_and_monotone_in_power():
    base = SystemParams.reference(l=9.0)
    powers = np.geomspace(base.p_t / 1e3, base.p_t * 1e3, 25)
    for fn in (rate_fwnl, lambda q: rate_fwl(q),
               lambda q: rate_pwnl(q), lambda q: rate_pwl(q)):
        values = [fn(base.with_(p_t=float(pt))).value for pt in powers]
        assert all(v >= 0.0 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# consistency lattice (module scale; the acceptance suite runs the full grid)
# ---------------------------------------------------------------------------

def test_consistency_lattice_on_random_grid():
    rng = np.random.default_rng(55)
    for _ in range(10):
        base = random_reference(rng, alpha_max=0.04, gamma_lo=95.0, gamma_hi=120.0)
        full = base.with_(l=base.r)
        assert outage_pwnl(full).value == pytest.approx(
            outage_fwnl(full).value, abs=1e-9)
        assert outage_pwl(full).value == pytest.approx(
            outage_fwl(full).value, abs=1e-9)
        assert rate_pwnl(full, nodes=2000).value == pytest.approx(
            rate_fwnl(full).value, rel=1e-6)
        assert rate_pwl(full, nodes=2000).value == pytest.approx(
            rate_fwl(full, nodes=2000).value, rel=1e-6)
        # exact-zero attenuation routes through the lossless expressions
        lossless = base.with_(alpha=0.0)
        assert outage_fwl(lossless).value == outage_fwnl(lossless).value
        assert outage_pwl(lossless).value == outage_pwnl(lossless).value
        assert rate_fwl(lossless).value == rate_fwnl(lossless).value
        assert rate_pwl(lossless).value == rate_pwnl(lossless).value


# ---------------------------------------------------------------------------
# the chord-rate kernel against the plain full rule
# ---------------------------------------------------------------------------

def _cosine_rule(n: int):
    # the order-n nodes cos((2k-1)pi/2n) as computed one by one, so t and -t
    # differ in the last bit at some mirrored pairs
    angles = (2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n)
    return np.cos(angles), np.sin(angles)


@pytest.mark.parametrize("nodes", [2, 3, 17, 200, 201, 2000])
def test_mirrored_pair_kernel_matches_full_rule(nodes):
    # the kernel pairs each covered-span node x with -x, and the far side
    # with the near side; summing every node on its own must give the same
    # rate.  On the library's exactly mirrored nodes that holds to rounding
    # everywhere, extreme configurations included; against nodes computed
    # one by one, an ulp of a node moves the exponent by alpha l 2^-53,
    # which reaches ~1e-11 at alpha r = 1e5, so that check stays in the box
    t, w = analysis._chebyshev_nodes(nodes)
    cos_t, cos_w = _cosine_rule(nodes)
    for draw, seed in ((random_reference, 61), (extreme_reference, 62)):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p = draw(rng)
            lengths = np.array([p.l, p.r])
            batched = analysis._rate_chord(p, lengths, nodes, p.alpha)
            for l, grid_value in zip(lengths.tolist(), batched.tolist()):
                want = rate_chord_full_rule(p, l, t, w)
                value = float(analysis._rate_chord(p, l, nodes, p.alpha))
                assert value == pytest.approx(want, rel=1e-14, abs=0.0)
                assert grid_value == pytest.approx(want, rel=1e-14, abs=0.0)
                if draw is random_reference:
                    assert value == pytest.approx(rate_chord_full_rule(p, l, cos_t, cos_w),
                                                  rel=1e-13, abs=0.0)


@pytest.mark.parametrize("nodes", [2, 3, 17, 200, 201, 2000])
def test_lossless_stacked_pass_matches_per_node_rule(nodes):
    # one half-length makes one pass over the covered nodes on [0, l] and
    # the outer nodes at twice the weight, far and near side as one; the
    # reference evaluates every node of both sides on its own
    t, w = analysis._chebyshev_nodes(nodes)
    for draw, seed in ((random_reference, 61), (extreme_reference, 62)):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            p = draw(rng).with_(alpha=0.0)
            for l in (p.l, p.r):
                want = rate_chord_lossless_full_rule(p, l, t, w)
                assert rate_pwnl(p.with_(l=l), nodes).value \
                    == pytest.approx(want, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# optimal-length search
# ---------------------------------------------------------------------------

def test_lossless_rate_prefers_full_coverage():
    p = SystemParams.reference(gamma_t_db=105.0, alpha=0.0)
    result = optimal_length_search(p, metric="rate", grid_spec=(1.0, 25.0, 25))
    assert result.best_l == pytest.approx(p.r, abs=1e-9)
    assert result.grid_end == "stop"


@pytest.mark.parametrize("nodes", [200, 2000])
def test_lossless_rate_search_ends_at_the_stop_on_the_default_grid(nodes):
    # the 200-node rule ranks l = 24.5 m above l = r = 25 m, but at alpha = 0
    # no position's SNR falls as l grows: the stop is returned, unrefined
    p = SystemParams.reference(alpha=0.0)
    result = optimal_length_search(p, "rate", nodes=nodes)
    assert result.best_l == p.r and result.grid_end == "stop"
    assert result.best_value == result.grid[-1][1]


@pytest.mark.parametrize("alpha, metric, grid_end, best_l", [
    # the attenuation outweighs the coverage: the optimum is the grid start
    (0.06, "rate", "start", 0.5),
    (0.1, "outage", "start", 0.5),
    # interior optima, refined between their grid neighbors
    (0.02, "rate", None, 12.06),
    (0.02, "outage", None, 14.76),
])
def test_search_flags_an_optimum_at_a_grid_end(alpha, metric, grid_end, best_l):
    result = optimal_length_search(SystemParams.reference(alpha=alpha), metric)
    assert result.grid_end == grid_end
    assert result.best_l == pytest.approx(best_l, abs=5e-3)


def test_optimal_length_decreases_with_attenuation():
    best = []
    for alpha in (0.01, 0.02, 0.03, 0.04):
        p = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
        res = optimal_length_search(p, metric="rate", grid_spec=(0.5, 25.0, 50))
        best.append(res.best_l)
    assert all(b <= a + 1e-6 for a, b in zip(best, best[1:]))
    assert best[-1] < best[0] - 1.0


def test_outage_optimum_rises_with_attenuation_between_0_010_and_0_012():
    # where the reproduction departs from the source's trend: at the
    # reference configuration the PWL outage optimum rises with alpha over
    # [0.010, 0.012] (17.816, 17.873, 18.058 m), and falls again at 0.013
    alphas = (0.010, 0.011, 0.012, 0.013)
    best = [optimal_length_search(SystemParams.reference(alpha=alpha), metric="outage",
                                  grid_spec=(15.0, 20.0, 101)).best_l for alpha in alphas]
    assert best[0] < best[1] < best[2] and best[3] < best[2]
    assert best[:3] == pytest.approx([17.816, 17.873, 18.058], abs=1e-3)
    assert [evaluate(Scenario.PWL, "outage", SystemParams.reference(alpha=alpha, l=l)).case_id
            for alpha, l in zip(alphas[:3], best)] == ["g2-left-right"] * 3
    # at alpha = 0.011 and 0.012, the exact outage confirms that each
    # optimum beats the optimum of the lower attenuation
    for alpha, lower, l in ((0.011, *best[:2]), (0.012, *best[1:3])):
        p = SystemParams.reference(alpha=alpha)
        exact = [outage_by_mpmath(p.with_(l=x), Scenario.PWL) for x in (lower, l)]
        for x, value in zip((lower, l), exact):
            assert evaluate(Scenario.PWL, "outage", p.with_(l=x)).value \
                == pytest.approx(value, abs=1e-14, rel=0.0)
        assert exact[0] - exact[1] > 1e-6


@pytest.mark.parametrize("alpha", [0.02, 0.0])
@pytest.mark.parametrize("metric,nodes,grid_spec", [
    pytest.param("rate", 200, (0.5, 25.0, 50), id="200-grid_spec0"),
    pytest.param("rate", 2000, (0.5, 25.0, 50), id="2000-grid_spec1"),
    # 100 x 2000 node evaluations: four kernel blocks
    pytest.param("rate", 2000, (0.25, 25.0, 100), id="2000-grid_spec2"),
    # an odd order: the center node of the covered span has no mirror
    pytest.param("rate", 201, (0.5, 25.0, 50), id="201-grid_spec0"),
    pytest.param("outage", 200, (0.5, 25.0, 50), id="outage-grid_spec0"),
    pytest.param("outage", 200, (0.25, 25.0, 100), id="outage-grid_spec2"),
])
def test_batched_rate_grid_matches_per_point_evaluate(alpha, metric, nodes, grid_spec):
    # the rate grid is batched kernel calls, each row reduced as a single
    # rate is; each outage point calls the closed form evaluate calls: both
    # equal evaluate bit for bit
    p = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
    res = optimal_length_search(p, metric=metric, grid_spec=grid_spec, nodes=nodes)
    assert len(res.grid) == grid_spec[2] and res.grid[-1][0] == p.r
    for l, value in res.grid + ((res.best_l, res.best_value),):
        want = evaluate(Scenario.PWL, metric, p.with_(l=l), nodes).value
        assert type(value) is float and value == want


@pytest.mark.parametrize("nodes", [200, 201, 2000])
def test_rate_grid_equals_evaluate_bit_for_bit_over_draws(nodes):
    # box and extreme draws, lossy and lossless, on the default grid: every
    # grid value, and the refined optimum, is the rate evaluate gives
    draws = []
    for draw, seed in ((random_reference, 2026), (extreme_reference, 2027)):
        rng = np.random.default_rng(seed)
        draws += [draw(rng) for _ in range(100)]
    for p in draws:
        for q in (p, p.with_(alpha=0.0)):
            res = optimal_length_search(q, "rate", nodes=nodes)
            for l, value in res.grid + ((res.best_l, res.best_value),):
                assert value == evaluate(Scenario.PWL, "rate", q.with_(l=l), nodes).value, (q, l)


def test_flat_outage_optimum_reports_its_smallest_half_length():
    # at alpha = 0 the outage stops falling at x0 = sqrt(r^2 - A), where the
    # covered band reaches across the disk; the search breaks the tie
    # towards the smaller half-length, so it returns x0, not a grid point
    p = SystemParams.reference(gamma_t_db=105.0, alpha=0.0)
    x0 = math.sqrt(p.r ** 2 - derive_constants(p).A)
    res = optimal_length_search(p, metric="outage")
    assert res.best_l == pytest.approx(x0, abs=1e-3)
    assert res.best_value == min(value for _, value in res.grid)


def test_rate_search_refines_in_few_kernel_calls(monkeypatch):
    # the grid is one kernel call; parabolic refinement from its bracket
    # then needs a few scalar calls to land within 1e-3 m of the optimum
    kernel = analysis._rate_chord
    scalar_calls = 0

    def counted(p, l, nodes, alpha):
        nonlocal scalar_calls
        scalar_calls += not isinstance(l, np.ndarray)
        return kernel(p, l, nodes, alpha)

    monkeypatch.setattr(analysis, "_rate_chord", counted)
    rng = np.random.default_rng(SEED)
    configs = [random_reference(rng) for _ in range(50)]
    # and the stored searches of the benchmark
    configs += [SystemParams.reference(gamma_t_db=105.0, r=25.0, h=10.0, alpha=alpha, l=12.5)
                for alpha in (0.01, 0.02, 0.03, 0.04)]
    refined = 0
    for p in configs:
        scalar_calls = 0
        res = optimal_length_search(p, metric="rate")
        assert scalar_calls <= 8
        lengths, values = zip(*res.grid)
        i = int(np.argmax(values))
        if 0 < i < len(values) - 1:
            refined += 1
            tight = analysis._golden_section(lambda l: -float(kernel(p, l, 200, p.alpha)),
                                             lengths[i - 1], lengths[i + 1], tol=1e-7)
            assert res.best_l == pytest.approx(tight, abs=1e-3)
            assert res.best_value >= values[i]
        else:
            assert (res.best_l, res.best_value) == (lengths[i], values[i])
    assert refined >= 40


@pytest.mark.parametrize("fun, most", [
    # flat on the bracket: the parabola through it has no vertex, so no step
    pytest.param(lambda x: min(1.0, 100.0 * (x - 1.3) ** 2), 0, id="degenerate-parabola"),
    # a kink at b: every vertex is worse, the first one (0.75) left of b
    pytest.param(lambda x: 1.0 - x if x <= 1.0 else 3.0 * (x - 1.0), 8, id="worse-vertex"),
])
def test_parabolic_refine_never_worsens_its_input(fun, most):
    calls = []

    def counted(x):
        calls.append(x)
        return fun(x)

    best_l, best = analysis._parabolic_refine(counted, 0.0, 1.0, 2.0, fun(0.0), fun(1.0),
                                              fun(2.0), tol=1e-4)
    assert (best_l, best) == (1.0, fun(1.0))
    assert len(calls) <= most and all(0.0 < x < 2.0 for x in calls)


def test_outage_search_builds_no_system_params(monkeypatch):
    built = 0
    post_init = SystemParams.__post_init__

    def counted(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(SystemParams, "__post_init__", counted)
    for alpha in (0.02, 0.0):
        p = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
        built = 0
        optimal_length_search(p, metric="outage")
        assert built == 0


def test_single_point_grid_returned_as_is():
    p = SystemParams.reference()
    res = optimal_length_search(p, metric="outage", grid_spec=(7.0, 7.0, 1))
    assert res.best_l == 7.0
    assert res.grid == ((7.0, outage_pwl(p.with_(l=7.0)).value),)


def test_grid_validation():
    p = SystemParams.reference()
    with pytest.raises(ValueError):
        optimal_length_search(p, metric="rate", grid_spec=(0.0, 25.0, 10))
    with pytest.raises(ValueError):
        optimal_length_search(p, metric="rate", grid_spec=(1.0, 30.0, 10))
    with pytest.raises(ValueError):
        optimal_length_search(p, metric="rate", grid_spec=(1.0, 1.01, 5))
    with pytest.raises(ValueError, match="grid steps must be at least 1, got 0"):
        optimal_length_search(p, metric="rate", grid_spec=(1.0, 25.0, 0))
    with pytest.raises(ValueError):
        optimal_length_search(p, metric="throughput")
