"""Traced run: per-layer self times and counts from spans.

Spans are recorded in the benchmark's own files, around its calls into
each module of the package (params, geometry, numerics, _outage_lossy,
analysis_full, analysis_partial, montecarlo, cli).  A span is
(name, start ns, end ns, parent index, operation id); spans stay in memory
and are written once at the end.  A span's self time is its duration
minus the time its child spans cover.

Every workload's traced run measures the same layer metrics, on that
workload's own inputs:

* a layer pass over each configuration the workload evaluates (constants,
  classifier, lossy dispatch with a precomputed report, every closed form
  at 200 and 2000 nodes), run alternately untraced and traced for the
  run's measuring time (at least three pairs); the ratio of the median
  wall times is ``trace.overhead_frac``;
* the Monte-Carlo layers on the workload's first lossy configuration;
* the half-length searches;
* the CLI layers: dispatch cost, a no-MC sweep, CSV writing, and the
  self time of `validate` and `figure 2..7`, i.e. the command's wall time
  minus a replay of the library calls it makes.  The commands run with
  1,000 MC samples and one worker, because their own cost does not depend
  on the sample count and a single-threaded replay must match them.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import traffic
import workloads as wl

CASE_IDS = (
    "all-outage", "no-outage", "g2-mid-mid", "g2-mid-right", "g2-left-right",
    "g1f1-left-mid", "g1f1-left-right", "g1f1-mid-mid", "g1f1-mid-right",
    "f2-left-mid", "f2-left-right", "unclassified",
)
CHUNK = 65536
PASSES = 3
SMALL_MC = 1000
_MODULE = {"fwnl": "analysis_full", "fwl": "analysis_full",
           "pwnl": "analysis_partial", "pwl": "analysis_partial"}


class Tracer:
    """In-memory span recorder, called as a hook: ``tracer(name, op, fn, *args)``."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, op]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def __call__(self, name, op, fn, *args):
        # a leaf span, recorded without the context-manager overhead
        span = [name, 0, None, self._open[-1] if self._open else None, op]
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter_ns()

    def self_times(self) -> dict[str, list[int]]:
        """Self time (ns) of every span, grouped by span name."""
        covered = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        by_name: dict[str, list[int]] = {}
        for (name, start, end, _, _), child in zip(self.spans, covered):
            by_name.setdefault(name, []).append(end - start - child)
        return by_name

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class _Untraced:
    """Call hook with the Tracer's interface that records nothing."""

    def __call__(self, name, op, fn, *args):
        return fn(*args)

    def span(self, name, op=None):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# inputs per workload
# ---------------------------------------------------------------------------


def figure_params(pp, row: wl.FigureRow):
    """The configuration of one figure row, built as the sweep builds it."""
    base = pp.SystemParams.reference(gamma_t_db=105.0, **dict(row.overrides))
    if row.variable == "gamma_t_db":
        return base.with_(p_t=base.sigma2 * pp.db_to_linear(row.value))
    return base.with_(**{row.variable: row.value})


def probe_inputs(pp, workload: str, seed: int):
    """(configurations, expected case labels) a workload evaluates."""
    if workload == "closed_form":
        configs = wl.closed_form_configs(seed)
        return [traffic.params_of(pp, c) for c in configs], [dict(c.labels) for c in configs]
    if workload == "validate":
        configs = []
        for d in wl.validate_draws(seed):
            p = traffic.params_of(pp, d)
            configs += [p, p.with_(l=p.r), p.with_(alpha=1e-9)]
        return configs, [{}] * len(configs)
    unique = list(dict.fromkeys(figure_params(pp, row) for row in wl.figure_rows()))
    return unique, [{}] * len(unique)


def _closed_form(pp, metric: str, scenario: str, p, nodes: int):
    fn = getattr(pp, f"{metric}_{scenario.lower()}")
    return fn(p) if metric == "outage" or scenario == "FWNL" else fn(p, nodes)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def layer_pass(pp, lossy_mod, configs, labels, hook):
    """One pass of the per-configuration layer calls; returns the checks' tallies.

    An exception fails the configuration's remaining calls and the pass
    goes on with the next configuration.
    """
    cases, fallbacks, attempted, problems = Counter(), 0, 0, []
    for op, (p, expected) in enumerate(zip(configs, labels)):
        with hook.span("probe.config", op):
            try:
                hook("params.derive_constants", op, pp.derive_constants, p)
                for name in ("FWL", "PWL") if p.alpha > 0.0 else ():
                    attempted += 1
                    scenario = pp.Scenario[name]
                    report = hook(f"numerics.classify_crossings/{name}", op,
                                  pp.classify_crossings, p, scenario)
                    hook("outage_lossy.evaluate_lossy_outage", op,
                         lossy_mod.evaluate_lossy_outage, p, scenario, report)
                    cases[report.case_id] += 1
                    if name in expected and report.case_id != expected[name]:
                        problems.append((f"cfg{op}/{name}", f"case {report.case_id!r}, "
                                         f"inputs were drawn as {expected[name]!r}"))
                for fn_name, nodes in traffic.CLOSED_FORMS:
                    attempted += 1
                    name = f"{_MODULE[fn_name.split('_')[1]]}.{fn_name}"
                    if nodes is not None:
                        name += f"/n{nodes}"
                    args = (p,) if nodes is None else (p, nodes)
                    res = hook(name, op, getattr(pp, fn_name), *args)
                    fallbacks += (res.case_id or "").endswith("+numeric")
                    if not checks.in_range(fn_name.split("_")[0], res.value):
                        problems.append((f"cfg{op}/{fn_name}", f"value {res.value!r} out of range"))
            except Exception as exc:        # a failed operation, counted by the checks
                problems.append((f"cfg{op}", f"raised {type(exc).__name__}: {exc}"))
    return cases, fallbacks, attempted, problems


def mc_probes(pp, geometry, p, seed: int, tracer: Tracer) -> None:
    pwl = pp.Scenario.PWL
    for j in range(32):
        with tracer.span("geometry.draw_chunk", j):
            rng = np.random.Generator(np.random.Philox(key=seed).jumped(j))
            x, y = geometry.sample_uniform_disk(rng, p.r, CHUNK)
        tracer("montecarlo.snr_chunk", j, pp.snr_values, pwl, p, x, y)
    for k in range(3):
        tracer("montecarlo.estimate_outage_1e6", k, pp.estimate_outage, pwl, p, 10**6, seed, 1)
        tracer("montecarlo.estimate_rate_1e6", k, pp.estimate_rate, pwl, p, 10**6, seed, 1)
        tracer("montecarlo.estimate_outage_1e6_w2", k, pp.estimate_outage, pwl, p, 10**6,
               seed, 2)
    for k in range(8):
        estimator = pp.estimate_outage if k % 2 == 0 else pp.estimate_rate
        tracer("montecarlo.estimate_1e5", k, estimator, pwl, p, 10**5, seed + k, 1)


def search_probes(pp, tracer: Tracer) -> None:
    r, h, gamma_t_db = wl.SEARCH_BASE
    for metric in ("rate", "outage"):
        for alpha in wl.SEARCH_ALPHAS:
            p = pp.SystemParams.reference(gamma_t_db=gamma_t_db, r=r, h=h, alpha=alpha, l=r / 2)
            tracer(f"analysis_partial.optimal_length_{metric}", alpha,
                   pp.optimal_length_search, p, metric)


def _validate_replay(pp, seed: int, tracer: Tracer) -> None:
    # the library calls `validate --mc-samples 1000` makes, in its order
    nodes = wl.VALIDATE_NODES
    draws = [traffic.params_of(pp, d) for d in wl.validate_draws(seed)]
    for i, p in enumerate(draws):
        for q in (p.with_(l=p.r), p.with_(alpha=1e-9)):
            for scenario in ("FWNL", "FWL", "PWNL", "PWL"):
                for metric in ("outage", "rate"):
                    tracer("replay.closed_form", i, _closed_form, pp, metric, scenario, q, nodes)
    for i, p in enumerate(draws):
        for scenario in ("FWNL", "FWL", "PWNL", "PWL"):
            for metric in ("outage", "rate"):
                tracer("replay.closed_form", i, _closed_form, pp, metric, scenario, p, nodes)
                estimator = pp.estimate_outage if metric == "outage" else pp.estimate_rate
                tracer("replay.estimate", i, estimator, pp.Scenario[scenario], p,
                       SMALL_MC, seed + i, 1)


def _figures_replay(pp, seed: int, tracer: Tracer) -> list:
    # the library calls `figure 2..7 --mc-samples 1000 --workers 1` makes
    results = []
    for k, row in enumerate(wl.figure_rows()):
        p = figure_params(pp, row)
        res = tracer("replay.closed_form", k, _closed_form, pp, row.metric, row.scenario, p,
                     200)
        estimator = pp.estimate_outage if row.metric == "outage" else pp.estimate_rate
        est = tracer("replay.estimate", k, estimator, pp.Scenario[row.scenario], p, SMALL_MC,
                     seed + row.row_index, 1)
        results.append((row, res, est))
    return results


def cli_probes(pp, cli, seed: int, out_dir: Path, tracer: Tracer) -> dict:
    """CLI-layer metrics; command and replay pairs alternate PASSES times."""
    dispatch = getattr(cli, "closed_form", None) or getattr(pp, "evaluate")
    p = pp.SystemParams.reference()
    fwnl = pp.Scenario.FWNL
    for k in range(400):
        tracer("cli.closed_form/fwnl_outage", k, dispatch, fwnl, "outage", p)
        tracer("direct.outage_fwnl", k, pp.outage_fwnl, p)

    codes, rows = [], None
    for k in range(PASSES):
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.validate_small", k):
            codes.append(cli.main(traffic.validate_argv(seed, SMALL_MC)))
        with tracer.span("replay.validate_small", k):
            _validate_replay(pp, seed, tracer)
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.figures_small", k):
            for fig in wl.FIGURE_IDS:
                codes.append(cli.main(traffic.figure_argv(fig, seed, out_dir, 1, SMALL_MC)))
        with tracer.span("replay.figures_small", k):
            rows = _figures_replay(pp, seed, tracer)
        with contextlib.redirect_stdout(io.StringIO()), tracer.span("cli.figures_nomc", k):
            for fig in wl.FIGURE_IDS:
                codes.append(cli.main(traffic.figure_argv(fig, seed, out_dir, 1, no_mc=True)))

    sweep_rows = [cli.SweepRow(row.variable, row.value, pp.Scenario[row.scenario], res.value,
                               est.mean, est.stderr, res.case_id or "",
                               abs(res.value - est.mean), True)
                  for row, res, est in rows]
    for k in range(5):
        tracer("cli.write_csv", k, cli.write_csv, sweep_rows, str(out_dir / "write_probe.csv"))
    return {"exit_codes": codes}


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _median_us(times: dict, name: str) -> float:
    return statistics.median(times[name]) / 1e3


def _paired_self(tracer: Tracer, command: str, replay: str) -> float:
    # command wall minus replay wall, median over the alternating pairs
    walls = {command: [], replay: []}
    for name, start, end, _, _ in tracer.spans:
        if name in walls:
            walls[name].append(end - start)
    return statistics.median(c - r for c, r in zip(walls[command], walls[replay])) / 1e9


def run_traced(pp, cli, workload: str, seed: int, seconds: float, out_dir: Path,
               trace_path: Path):
    """Per-layer metrics, (attempted, failed, problems) and the span table."""
    from pinchpass import _outage_lossy, geometry

    configs, labels = probe_inputs(pp, workload, seed)
    tracer = Tracer()
    plain, traced = [], []
    cases = Counter()
    fallbacks = attempted = 0
    problems = []
    layer_pass(pp, _outage_lossy, configs, labels, _Untraced())       # warm-up
    deadline = time.perf_counter() + seconds
    k = 0
    while k < PASSES or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        layer_pass(pp, _outage_lossy, configs, labels, _Untraced())
        plain.append(time.perf_counter_ns() - t0)
        t0 = time.perf_counter_ns()
        with tracer.span("probe.layer_pass", k):
            tallies = layer_pass(pp, _outage_lossy, configs, labels, tracer)
        traced.append(time.perf_counter_ns() - t0)
        if k == 0:
            cases, fallbacks, attempted, problems = tallies
        k += 1

    first_lossy = next((p for p in configs if p.alpha > 0.0), configs[0])
    mc_probes(pp, geometry, first_lossy, seed, tracer)
    search_probes(pp, tracer)
    cli_out = cli_probes(pp, cli, seed, out_dir, tracer)
    attempted += len(cli_out["exit_codes"])
    problems += [("cli", f"exit code {c}") for c in cli_out["exit_codes"] if c not in (0, 1)]
    tracer.write(trace_path)

    t = tracer.self_times()
    us = lambda name: _median_us(t, name)
    ms = lambda name: _median_us(t, name) / 1e3
    draw, snr = ms("geometry.draw_chunk"), ms("montecarlo.snr_chunk")
    est_1e6 = ms("montecarlo.estimate_outage_1e6")
    metrics = {
        "params.derive_constants_us": us("params.derive_constants"),
        "numerics.classify_crossings_fwl_us": us("numerics.classify_crossings/FWL"),
        "numerics.classify_crossings_pwl_us": us("numerics.classify_crossings/PWL"),
        "outage_lossy.evaluate_lossy_outage_us": us("outage_lossy.evaluate_lossy_outage"),
        "analysis_full.outage_fwl_us": us("analysis_full.outage_fwl"),
        "analysis_partial.outage_pwl_us": us("analysis_partial.outage_pwl"),
        "analysis_partial.outage_pwnl_us": us("analysis_partial.outage_pwnl"),
    }
    for fn_name in ("analysis_full.rate_fwl", "analysis_partial.rate_pwl",
                    "analysis_partial.rate_pwnl"):
        for nodes in wl.NODE_COUNTS:
            metrics[f"{fn_name}_n{nodes}_us"] = us(f"{fn_name}/n{nodes}")
    metrics["analysis_partial.optimal_length_rate_ms"] = ms("analysis_partial.optimal_length_rate")
    metrics["analysis_partial.optimal_length_outage_ms"] = ms(
        "analysis_partial.optimal_length_outage")
    for case in CASE_IDS:
        metrics[f"numerics.case_count.{case}"] = cases[case]
    metrics["outage_lossy.numeric_fallbacks"] = fallbacks
    metrics.update({
        "geometry.draw_chunk_ms": draw,
        "montecarlo.snr_chunk_ms": snr,
        "montecarlo.estimate_outage_1e6_ms": est_1e6,
        "montecarlo.estimate_rate_1e6_ms": ms("montecarlo.estimate_rate_1e6"),
        "montecarlo.estimate_1e5_ms": ms("montecarlo.estimate_1e5"),
        "montecarlo.estimator_self_ms": est_1e6 - 10**6 / CHUNK * (draw + snr),
        "montecarlo.scaling_eff_w2": est_1e6 / (2.0 * ms("montecarlo.estimate_outage_1e6_w2")),
        "cli.closed_form_dispatch_us": us("cli.closed_form/fwnl_outage") - us("direct.outage_fwnl"),
        "cli.run_sweep_nomc_rows_per_s": traffic.FIGURE_ROWS / (ms("cli.figures_nomc") / 1e3),
        "cli.write_csv_ms": ms("cli.write_csv"),
        "cli.validate_self_s": _paired_self(tracer, "cli.validate_small", "replay.validate_small"),
        "cli.figures_self_s": _paired_self(tracer, "cli.figures_small", "replay.figures_small"),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    })
    self_table = {name: (len(v), sum(v) / 1e6) for name, v in sorted(t.items())}
    return metrics, attempted, problems, self_table
