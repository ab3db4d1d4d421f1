"""Command-line experiment harness.

Subcommands:

* ``sweep``          run a configured parameter sweep and write a CSV table
* ``figure``         run one of the bundled presets (ids 2-7) reproducing the
                     summary curves of the reference configuration
* ``validate``       closed-form vs Monte-Carlo agreement report
* ``optimal-length`` grid plus golden-section search of the best half-length

Configuration file (INI, ``key = value``)::

    [sweep]
    metric = outage              ; outage | rate
    variable = gamma_t_db        ; gamma_t_db | l | alpha | r
    start = 90
    stop = 125
    steps = 15
    scenarios = FWNL, FWL, PWNL, PWL

    [params]
    r = 25.0
    h = 10.0
    f_c = 28e9
    sigma2_dbm = -90
    gamma_t_db = 105             ; transmit SNR p_t/sigma2 when not swept
    gamma_th = 100               ; linear; alternatively gamma_th_db
    alpha = 0.02
    l = 12.5
    paper_c = true               ; rounded c = 3e8 m/s

    [mc]
    enabled = true
    n_samples = 100000
    seed = 20260810
    tolerance_outage = 1e-4
    tolerance_rate = 0.0

    [quadrature]
    nodes = 200

    [output]
    path = sweep.csv

Seed precedence: ``--seed`` flag, then the PINCHPASS_SEED environment
variable, then the config value.  Exit codes: 0 success, 1 validation
failure, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import analysis_full, analysis_partial, montecarlo
from .params import (
    DEFAULT_QUADRATURE_NODES,
    Scenario,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
)

logger = logging.getLogger(__name__)

CSV_HEADER = "swept_var,swept_value,scenario,closed_form,mc_mean,mc_stderr,case_id,abs_gap,pass"
SEED_ENV_VAR = "PINCHPASS_SEED"
DEFAULT_SEED = 20260810
DEFAULT_MC_SAMPLES = 100_000
SWEEP_VARIABLES = ("gamma_t_db", "l", "alpha", "r")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class McConfig:
    enabled: bool = True
    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = DEFAULT_SEED
    tolerance_outage: float = 1e-4
    tolerance_rate: float = 0.0


@dataclass(frozen=True)
class SweepConfig:
    metric: str
    variable: str
    start: float
    stop: float
    steps: int
    scenarios: tuple[Scenario, ...]
    base: SystemParams
    mc: McConfig = field(default_factory=McConfig)
    nodes: int = DEFAULT_QUADRATURE_NODES
    out_path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if self.metric not in ("outage", "rate"):
            raise ConfigError(f"sweep.metric must be outage or rate, got {self.metric!r}")
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}, "
                              f"got {self.variable!r}")
        if self.steps < 2:
            raise ConfigError(f"sweep.steps must be at least 2, got {self.steps!r}")
        if not self.scenarios:
            raise ConfigError("sweep.scenarios must list at least one scenario")
        if not self.stop >= self.start:
            raise ConfigError("sweep.stop must not be below sweep.start")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRow:
    swept_var: str
    swept_value: float
    scenario: Scenario
    closed_form: float
    mc_mean: float | None
    mc_stderr: float | None
    case_id: str
    abs_gap: float | None
    passed: bool | None


def apply_swept(base: SystemParams, variable: str, value: float) -> SystemParams:
    """Bind one grid value of the swept variable into the configuration."""
    try:
        if variable == "gamma_t_db":
            return base.with_(p_t=base.sigma2 * db_to_linear(value))
        if variable == "l":
            return base.with_(l=value)
        if variable == "alpha":
            return base.with_(alpha=value)
        if variable == "r":
            return base.with_(r=value)
    except ValueError as exc:
        raise ConfigError(f"swept value {variable}={value!r} rejected: {exc}") from exc
    raise ConfigError(f"unknown swept variable {variable!r}")


def closed_form(scenario: Scenario, metric: str, p: SystemParams,
                nodes: int = DEFAULT_QUADRATURE_NODES) -> analysis_full.MetricResult:
    """Dispatch (scenario, metric) to its closed-form evaluator."""
    if metric == "outage":
        table = {
            Scenario.FWNL: lambda: analysis_full.outage_fwnl(p),
            Scenario.FWL: lambda: analysis_full.outage_fwl(p),
            Scenario.PWNL: lambda: analysis_partial.outage_pwnl(p),
            Scenario.PWL: lambda: analysis_partial.outage_pwl(p),
        }
    else:
        table = {
            Scenario.FWNL: lambda: analysis_full.rate_fwnl(p),
            Scenario.FWL: lambda: analysis_full.rate_fwl(p, nodes),
            Scenario.PWNL: lambda: analysis_partial.rate_pwnl(p, nodes),
            Scenario.PWL: lambda: analysis_partial.rate_pwl(p, nodes),
        }
    return table[scenario]()


class _RowJob(NamedTuple):
    config: int         # index into run_sweep's configs
    row: int            # position in that config's rows
    value: float
    scenario: Scenario
    p: SystemParams
    seed: int | None    # Monte-Carlo seed; None when MC is off


def _sweep_row(cfg: SweepConfig, job: _RowJob, est) -> SweepRow:
    result = closed_form(job.scenario, cfg.metric, job.p, cfg.nodes)
    mc_mean = mc_stderr = abs_gap = passed = None
    if est is not None:
        tol = cfg.mc.tolerance_outage if cfg.metric == "outage" else cfg.mc.tolerance_rate
        mc_mean, mc_stderr = est.mean, est.stderr
        abs_gap = abs(result.value - est.mean)
        # bool(): the PWNL/PWL rates are numpy floats, and a numpy bool
        # would be written as True/False instead of 1/0
        passed = bool(abs_gap <= 3.0 * est.stderr + tol)
    return SweepRow(cfg.variable, job.value, job.scenario, result.value,
                    mc_mean, mc_stderr, result.case_id or "", abs_gap, passed)


def run_sweep(configs, workers: int = 1) -> list[list[SweepRow]]:
    """Evaluate every (grid point, scenario) row of each config.

    Returns one row list per config, in grid order.  Row k of a config
    draws its Monte-Carlo positions from seed ``mc.seed + k``.  The rows of
    all configs that share a seed and sample count form one group whose
    estimates come from one ``estimate_many`` call, so the variants of a
    figure share each draw; every estimate equals the row's own one-job
    estimate.  With ``workers`` > 1 a thread pool evaluates the groups,
    each on a single thread.
    """
    configs = list(configs)
    shared: dict[tuple[int, int], list[_RowJob]] = {}   # (seed, n_samples) -> rows
    alone: list[list[_RowJob]] = []                      # rows without MC
    for c, cfg in enumerate(configs):
        # bind every grid value first: an invalid one fails before any work
        points = [(float(v), apply_swept(cfg.base, cfg.variable, float(v)))
                  for v in cfg.grid()]
        row = 0
        for i, (value, p) in enumerate(points):
            for scenario in cfg.scenarios:
                if cfg.mc.enabled:
                    seed = cfg.mc.seed + i * len(cfg.scenarios) + cfg.scenarios.index(scenario)
                    job = _RowJob(c, row, value, scenario, p, seed)
                    shared.setdefault((seed, cfg.mc.n_samples), []).append(job)
                else:
                    alone.append([_RowJob(c, row, value, scenario, p, None)])
                row += 1

    def evaluate(group: list[_RowJob]) -> list[SweepRow]:
        first = group[0]
        estimates = [None] * len(group)
        if first.seed is not None:
            estimates = montecarlo.estimate_many(
                [(job.scenario, configs[job.config].metric, job.p) for job in group],
                configs[first.config].mc.n_samples, first.seed)
        return [_sweep_row(configs[job.config], job, est) for job, est in zip(group, estimates)]

    groups = list(shared.values()) + alone
    if workers <= 1:
        done = [evaluate(group) for group in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(evaluate, groups))
    out = [[None] * (cfg.steps * len(cfg.scenarios)) for cfg in configs]
    for group, rows in zip(groups, done):
        for job, row in zip(group, rows):
            out[job.config][job.row] = row
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(rows: list[SweepRow], path: str) -> None:
    """Write sweep rows with the fixed header; output is byte-stable."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fields = (row.swept_var, _fmt(row.swept_value), row.scenario.name,
                          _fmt(row.closed_form), _fmt(row.mc_mean), _fmt(row.mc_stderr),
                          row.case_id, _fmt(row.abs_gap), _fmt(row.passed))
                fh.write(",".join(fields) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep output {path!r}: {exc}") from exc


def write_gnuplot(csv_path: str, metric: str, scenarios) -> str:
    """Emit a small gnuplot script plotting closed_form per scenario."""
    gp_path = os.path.splitext(csv_path)[0] + ".gp"
    csv_name = os.path.basename(csv_path)
    lines = [
        "set datafile separator ','",
        f"set ylabel '{metric}'",
        "set xlabel 'swept value'",
        "set key outside",
    ]
    plots = [
        f"'< grep \",{s.name},\" {csv_name}' using 2:4 with linespoints title '{s.name}'"
        for s in scenarios
    ]
    lines.append("plot " + ", \\\n     ".join(plots))
    with open(gp_path, "w", encoding="ascii", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return gp_path


def summarize(rows: list[SweepRow]) -> str:
    checked = [r for r in rows if r.passed is not None]
    if not checked:
        return f"{len(rows)} rows (Monte-Carlo check disabled)"
    passed = sum(r.passed for r in checked)
    return f"{len(rows)} rows, MC agreement {passed}/{len(checked)} passed"


# ---------------------------------------------------------------------------
# configuration file parsing
# ---------------------------------------------------------------------------

_PARAM_KEYS = {"r", "h", "f_c", "sigma2_dbm", "sigma2", "gamma_t_db", "p_t",
               "gamma_th", "gamma_th_db", "alpha", "l", "paper_c", "c"}


def build_params(options: dict[str, str]) -> SystemParams:
    """System parameters from a flat key=value mapping (see module docstring)."""
    unknown = set(options) - _PARAM_KEYS
    if unknown:
        raise ConfigError(f"unknown [params] keys: {sorted(unknown)}")

    def as_float(key: str) -> float:
        try:
            return float(options[key])
        except ValueError as exc:
            raise ConfigError(f"params.{key} is not a number: {options[key]!r}") from exc

    kwargs = {}
    for key in ("r", "h", "f_c", "alpha", "l", "c"):
        if key in options:
            kwargs[key] = as_float(key)
    if "sigma2" in options and "sigma2_dbm" in options:
        raise ConfigError("give params.sigma2 or params.sigma2_dbm, not both")
    if "sigma2" in options:
        kwargs["sigma2"] = as_float("sigma2")
    elif "sigma2_dbm" in options:
        kwargs["sigma2"] = dbm_to_watts(as_float("sigma2_dbm"))
    if "gamma_th" in options and "gamma_th_db" in options:
        raise ConfigError("give params.gamma_th or params.gamma_th_db, not both")
    if "gamma_th" in options:
        kwargs["gamma_th"] = as_float("gamma_th")
    elif "gamma_th_db" in options:
        kwargs["gamma_th"] = db_to_linear(as_float("gamma_th_db"))
    if "p_t" in options and "gamma_t_db" in options:
        raise ConfigError("give params.p_t or params.gamma_t_db, not both")
    if options.get("paper_c", "").strip().lower() in ("1", "true", "yes", "on"):
        kwargs.setdefault("c", 3.0e8)

    gamma_t_db = as_float("gamma_t_db") if "gamma_t_db" in options else 105.0
    try:
        p = SystemParams.reference(gamma_t_db=gamma_t_db, **kwargs)
        if "p_t" in options:
            p = p.with_(p_t=as_float("p_t"))
        return p
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_sweep_config(path: str, args) -> SweepConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path!r}")
    if not parser.has_section("sweep"):
        raise ConfigError("config is missing the [sweep] section")
    sweep = parser["sweep"]
    scenario_text = sweep.get("scenarios", "")
    names = [s for s in (t.strip() for t in scenario_text.split(",")) if s]
    try:
        scenarios = tuple(Scenario.parse(name) for name in names)
    except ValueError as exc:
        raise ConfigError(f"sweep.scenarios: {exc}") from exc

    base = build_params(dict(parser["params"]) if parser.has_section("params") else {})
    if args.paper_c:
        base = base.with_(c=3.0e8)

    mc_section = dict(parser["mc"]) if parser.has_section("mc") else {}
    seed = resolve_seed(args.seed, mc_section.get("seed"))
    try:
        mc = McConfig(
            enabled=mc_section.get("enabled", "true").strip().lower()
            in ("1", "true", "yes", "on"),
            n_samples=(args.mc_samples if args.mc_samples is not None
                       else int(float(mc_section.get("n_samples", DEFAULT_MC_SAMPLES)))),
            seed=seed,
            tolerance_outage=float(mc_section.get("tolerance_outage", 1e-4)),
            tolerance_rate=float(mc_section.get("tolerance_rate", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [mc] section: {exc}") from exc

    nodes = args.nodes if args.nodes is not None else int(
        parser.get("quadrature", "nodes", fallback=str(DEFAULT_QUADRATURE_NODES)))
    out_path = args.out or parser.get("output", "path", fallback="sweep.csv")

    try:
        return SweepConfig(
            metric=sweep.get("metric", "outage").strip(),
            variable=sweep.get("variable", "gamma_t_db").strip(),
            start=sweep.getfloat("start"),
            stop=sweep.getfloat("stop"),
            steps=sweep.getint("steps"),
            scenarios=scenarios,
            base=base,
            mc=mc,
            nodes=nodes,
            out_path=out_path,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid [sweep] section: {exc}") from exc


def resolve_seed(cli_seed: int | None, config_seed=None) -> int:
    """Seed precedence: CLI flag, then environment, then config, then default."""
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    if config_seed is not None:
        try:
            return int(float(config_seed))
        except ValueError as exc:
            raise ConfigError(f"mc.seed must be an integer, got {config_seed!r}") from exc
    return DEFAULT_SEED


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

_ALL = (Scenario.FWNL, Scenario.FWL, Scenario.PWNL, Scenario.PWL)
_LOSSY = (Scenario.FWL, Scenario.PWL)

# Preset notes: the reference configuration fixes r = 25 m, alpha = 0.02,
# l = r/2.  Ids 2/5 compare region radii (half-length follows as r/2, not
# stated by the source curves); ids 4/7 sweep the half-length at a fixed
# transmit SNR (105 dB shown for outage; 105 dB adopted for rate as well).
FIGURE_PRESETS: dict[int, dict] = {
    2: dict(metric="outage", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=_ALL,
            variants=[("r15", dict(r=15.0, l=7.5)), ("r25", dict(r=25.0, l=12.5))]),
    3: dict(metric="outage", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=_LOSSY,
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.04)]),
    4: dict(metric="outage", variable="l", start=1.0, stop=25.0, steps=25,
            scenarios=(Scenario.PWL,), gamma_t_db=105.0,
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.03, 0.04)]),
    5: dict(metric="rate", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=_ALL,
            variants=[("r15", dict(r=15.0, l=7.5)), ("r25", dict(r=25.0, l=12.5))]),
    6: dict(metric="rate", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=_LOSSY,
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.04)]),
    7: dict(metric="rate", variable="l", start=1.0, stop=25.0, steps=25,
            scenarios=(Scenario.PWL,), gamma_t_db=105.0,
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.03, 0.04)]),
}


def run_figure(figure_id: int, args) -> list[str]:
    """Run one preset; returns the written CSV paths (one per variant).

    All variants go to one ``run_sweep`` call, so row k of every variant
    shares its Monte-Carlo draw.
    """
    if figure_id not in FIGURE_PRESETS:
        raise ConfigError(f"unknown figure id {figure_id!r}; expected 2-7")
    preset = FIGURE_PRESETS[figure_id]
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    mc = McConfig(enabled=not args.no_mc,
                  n_samples=(DEFAULT_MC_SAMPLES if args.mc_samples is None
                             else args.mc_samples),
                  seed=resolve_seed(args.seed))
    configs = [
        SweepConfig(metric=preset["metric"], variable=preset["variable"],
                    start=preset["start"], stop=preset["stop"],
                    steps=preset["steps"], scenarios=preset["scenarios"],
                    base=SystemParams.reference(gamma_t_db=preset.get("gamma_t_db", 105.0),
                                                **overrides),
                    mc=mc,
                    nodes=(DEFAULT_QUADRATURE_NODES if args.nodes is None
                           else args.nodes),
                    out_path=os.path.join(out_dir, f"figure{figure_id}_{suffix}.csv"))
        for suffix, overrides in preset["variants"]
    ]
    for cfg, rows in zip(configs, run_sweep(configs, workers=args.workers)):
        write_csv(rows, cfg.out_path)
        if args.gnuplot:
            write_gnuplot(cfg.out_path, cfg.metric, cfg.scenarios)
        print(f"{cfg.out_path}: {summarize(rows)}")
    return [cfg.out_path for cfg in configs]


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


def _lattice_checks(draws: np.ndarray, nodes: int):
    """Consistency identities between the four scenarios on random draws.

    The half-length degeneracies hold to rounding; the attenuation
    continuity rows are probed at alpha = 1e-9, where the exact gap is
    first order in alpha, so they carry an absolute 1e-6 band instead.
    """
    checks = []
    for row in draws:
        r, h, alpha, l_frac, gt = row
        p = SystemParams.reference(gamma_t_db=gt, r=r, h=h, alpha=alpha,
                                   l=max(l_frac * r, 0.01))
        full = p.with_(l=r)
        tiny = p.with_(alpha=1e-9)
        fwnl_rate = analysis_full.rate_fwnl(full).value
        fwl_rate = analysis_full.rate_fwl(full, nodes).value
        tiny_fwnl_rate = analysis_full.rate_fwnl(tiny).value
        tiny_pwnl_rate = analysis_partial.rate_pwnl(tiny, nodes).value
        checks.extend([
            ("PWNL(l=r)=FWNL outage", analysis_partial.outage_pwnl(full).value,
             analysis_full.outage_fwnl(full).value, 1e-9),
            ("PWNL(l=r)=FWNL rate", analysis_partial.rate_pwnl(full, nodes).value,
             fwnl_rate, 1e-6 * abs(fwnl_rate)),
            ("PWL(l=r)=FWL outage", analysis_partial.outage_pwl(full).value,
             analysis_full.outage_fwl(full).value, 1e-9),
            ("PWL(l=r)=FWL rate", analysis_partial.rate_pwl(full, nodes).value,
             fwl_rate, 1e-6 * abs(fwl_rate)),
            ("FWL(a~0)=FWNL outage", analysis_full.outage_fwl(tiny).value,
             analysis_full.outage_fwnl(tiny).value, 1e-6),
            ("FWL(a~0)=FWNL rate", analysis_full.rate_fwl(tiny, nodes).value,
             tiny_fwnl_rate, 1e-6 * abs(tiny_fwnl_rate)),
            ("PWL(a~0)=PWNL outage", analysis_partial.outage_pwl(tiny).value,
             analysis_partial.outage_pwnl(tiny).value, 1e-6),
            ("PWL(a~0)=PWNL rate", analysis_partial.rate_pwl(tiny, nodes).value,
             tiny_pwnl_rate, 1e-6 * abs(tiny_pwnl_rate)),
        ])
    return checks


def run_validation(args) -> int:
    """Lattice identities plus Monte-Carlo agreement; exit 1 on any failure."""
    seed = resolve_seed(args.seed)
    nodes = 2000 if args.nodes is None else args.nodes
    n_samples = 1_000_000 if args.mc_samples is None else args.mc_samples
    tol_scale = args.tol_scale
    rng = np.random.default_rng(seed)
    draws = np.column_stack([
        rng.uniform(10.0, 40.0, 6),     # r
        rng.uniform(3.0, 15.0, 6),      # h
        rng.uniform(0.005, 0.05, 6),    # alpha
        rng.uniform(0.1, 1.0, 6),       # l / r
        rng.uniform(95.0, 120.0, 6),    # transmit SNR dB
    ])

    # every check is computed before the report starts, so a rejected
    # setting ends the command before any line is printed
    checks = [(name, got, ref, base_tol * tol_scale)
              for name, got, ref, base_tol in _lattice_checks(draws, nodes)]
    for i, row in enumerate(draws):
        r, h, alpha, l_frac, gt = row
        p = SystemParams.reference(gamma_t_db=gt, r=r, h=h, alpha=alpha,
                                   l=max(l_frac * r, 0.01))
        jobs = [(scenario, metric, p) for scenario in _ALL for metric in ("outage", "rate")]
        estimates = montecarlo.estimate_many(jobs, n_samples, seed + i, args.workers)
        for (scenario, metric, _), est in zip(jobs, estimates):
            checks.append((f"MC {scenario.name} {metric} #{i}",
                           closed_form(scenario, metric, p, nodes).value, est.mean,
                           (3.0 * est.stderr + 1e-4) * tol_scale))

    failures = 0
    print(f"{'check':<28}{'got':>16}{'reference':>16}{'tol':>12}  status")
    for name, got, ref, tol in checks:
        ok = abs(got - ref) <= tol
        failures += not ok
        print(f"{name:<28}{got:>16.9g}{ref:>16.9g}{tol:>12.3g}  {'pass' if ok else 'FAIL'}")

    print(f"validation {'passed' if failures == 0 else f'FAILED ({failures} checks)'}")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing and entry points
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="Monte-Carlo seed (overrides environment and config)")
    common.add_argument("--mc-samples", type=int, default=None,
                        help="Monte-Carlo sample count per estimate")
    common.add_argument("--nodes", type=int, default=None,
                        help="Gauss-Chebyshev node count for rate evaluations")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--paper-c", action="store_true",
                        help="use the rounded speed of light c = 3e8 m/s")
    common.add_argument("--workers", type=int, default=1,
                        help="worker threads: sweep row groups, or validate's MC chunks")

    parser = argparse.ArgumentParser(
        prog="pinchpass",
        description="Outage/rate analysis for pinching-antenna coverage of a circular region.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a sweep described by a config file")
    p_sweep.add_argument("--config", required=True, help="INI config file")
    p_sweep.add_argument("--gnuplot", action="store_true",
                         help="also write a gnuplot script next to the CSV")

    p_fig = sub.add_parser("figure", parents=[common],
                           help="run a bundled preset (ids 2-7)")
    p_fig.add_argument("id", type=int, help="figure preset id, 2-7")
    p_fig.add_argument("--no-mc", action="store_true",
                       help="skip the Monte-Carlo columns")
    p_fig.add_argument("--gnuplot", action="store_true")

    p_val = sub.add_parser("validate", parents=[common],
                           help="closed-form vs Monte-Carlo agreement report")
    p_val.add_argument("--tol-scale", type=float, default=1.0,
                       help="scale factor on every tolerance (0 fails everything)")

    p_opt = sub.add_parser("optimal-length", parents=[common],
                           help="search the best waveguide half-length")
    p_opt.add_argument("--metric", choices=("outage", "rate"), default="rate")
    p_opt.add_argument("--gamma-t-db", type=float, default=105.0)
    p_opt.add_argument("--alpha", type=float, default=0.02)
    p_opt.add_argument("--r", type=float, default=25.0)
    p_opt.add_argument("--h", type=float, default=10.0)
    p_opt.add_argument("--l-start", type=float, default=None)
    p_opt.add_argument("--l-stop", type=float, default=None)
    p_opt.add_argument("--l-steps", type=int, default=50)
    p_opt.add_argument("--no-refine", action="store_true",
                       help="skip the golden-section refinement")
    return parser


def _cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config, args)
    [rows] = run_sweep([cfg], workers=args.workers)
    write_csv(rows, cfg.out_path)
    if args.gnuplot:
        write_gnuplot(cfg.out_path, cfg.metric, cfg.scenarios)
    print(f"{cfg.out_path}: {summarize(rows)}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    run_figure(args.id, args)
    return EXIT_OK


def _cmd_optimal_length(args) -> int:
    try:
        p = SystemParams.reference(gamma_t_db=args.gamma_t_db, r=args.r, h=args.h,
                                   alpha=args.alpha, l=args.r / 2.0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    start = args.l_start if args.l_start is not None else max(0.01, args.r / 50.0)
    stop = args.l_stop if args.l_stop is not None else args.r
    try:
        result = analysis_partial.optimal_length_search(
            p, metric=args.metric, grid_spec=(start, stop, args.l_steps),
            nodes=DEFAULT_QUADRATURE_NODES if args.nodes is None else args.nodes,
            refine=not args.no_refine)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        rows = [SweepRow("l", l, Scenario.PWL if p.alpha > 0 else Scenario.PWNL,
                         v, None, None, "", None, None) for l, v in result.grid]
        write_csv(rows, args.out)
        print(f"curve written to {args.out}")
    print(f"best half-length {result.best_l:.3f} m with {result.metric} "
          f"{result.best_value:.9g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error(f"argument --workers: must be at least 1, got {args.workers}")
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "validate": run_validation,
        "optimal-length": _cmd_optimal_length,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ValueError) as exc:
        # a library ValueError is an out-of-range setting, e.g. --mc-samples 10;
        # its message names the field
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
