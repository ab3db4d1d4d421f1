"""Command-line experiment harness.

Subcommands:

* ``sweep``          run a configured parameter sweep and write a CSV table
* ``figure``         run one or more bundled presets (ids 2-7) reproducing the
                     summary curves of the reference configuration, as one sweep
* ``validate``       closed-form vs Monte-Carlo agreement report
* ``optimal-length`` grid search of the best half-length, refined by parabolic
                     interpolation (rate) or golden section (outage)

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
    c = 3e8                      ; the default; 299792458 for the exact value

    [mc]
    enabled = true
    n_samples = 100000
    seed = 20260810

    [quadrature]
    nodes = 200

    [output]
    path = sweep.csv

A sweep binds each grid value into [params], replacing the swept key's own
value; ``params.p_t`` under a ``gamma_t_db`` sweep exits 2.

``CONFIG_SCHEMA`` admits only these sections and keys (and ``params.sigma2``,
``p_t``, ``gamma_th_db``); ``sweep.start``/``stop``/``steps`` are required,
``sweep.scenarios`` defaults to all four, integers take integer literals and
booleans 1/yes/true/on or 0/no/false/off.  Any other name, or a value of the
wrong type, exits 2 naming ``section.key``.

A flag wins over the key it sets, and a key over its default: ``--seed``
sets ``[mc] seed``, ``--mc-samples`` ``[mc] n_samples``, ``--nodes``
``[quadrature] nodes`` and ``sweep --out`` ``[output] path``.  The seed
must lie in [0, 2**64).  ``[params] r`` without ``l`` runs at l = r/2.
Exit codes: 0 success, 1 validation failure, 2 configuration error, 3 I/O
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import montecarlo
from .analysis import MetricResult, evaluate, optimal_length_search
from .params import (
    DEFAULT_QUADRATURE_NODES,
    Scenario,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
)

CSV_HEADER = "swept_var,swept_value,scenario,closed_form,mc_mean,mc_stderr,case_id,abs_gap,pass"
DEFAULT_SEED = 20260810
SWEEP_VARIABLES = ("gamma_t_db", "l", "alpha", "r")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class McConfig:
    enabled: bool = True
    n_samples: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        # the row seeds seed + k must stay valid generator keys
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"mc.seed (--seed) must be in [0, 2**64), got {self.seed!r}")
        # checked with Monte-Carlo off too: no sample count is accepted and ignored
        if self.n_samples < montecarlo.MIN_SAMPLES:
            raise ConfigError(f"mc.n_samples (--mc-samples) must be at least "
                              f"{montecarlo.MIN_SAMPLES}, got {self.n_samples!r}")


@dataclass(frozen=True, kw_only=True)
class SweepConfig:
    """A sweep: its fields are the [sweep] keys, [quadrature] nodes and [output] path."""
    start: float
    stop: float
    steps: int
    settings: dict[str, float]      # typed [params] values; the swept key's is replaced
    metric: str = "outage"
    variable: str = "gamma_t_db"
    scenarios: tuple[Scenario, ...] = tuple(Scenario)
    mc: McConfig = field(default_factory=McConfig)
    nodes: int = DEFAULT_QUADRATURE_NODES
    path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if self.metric not in ("outage", "rate"):
            raise ConfigError(f"sweep.metric must be outage or rate, got {self.metric!r}")
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable must be one of {SWEEP_VARIABLES}, "
                              f"got {self.variable!r}")
        if self.steps < 2:
            raise ConfigError(f"sweep.steps must be at least 2, got {self.steps!r}")
        # checked for outage sweeps too: no node count is accepted and ignored
        if self.nodes < 2:
            raise ConfigError(f"quadrature.nodes (--nodes) must be at least 2, got {self.nodes!r}")
        if not self.scenarios:
            raise ConfigError("sweep.scenarios must list at least one scenario")
        # each swept variable's domain is an interval, so its ends decide the grid
        for key in ("start", "stop"):
            try:
                self.params_at(getattr(self, key))
            except ConfigError as exc:
                raise ConfigError(f"sweep.{key}: {exc}") from exc
        if not self.stop >= self.start:
            raise ConfigError("sweep.stop must not be below sweep.start")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def params_at(self, value: float) -> SystemParams:
        """The system at one grid value: the settings with the swept key bound to it."""
        try:
            return build_params({**self.settings, self.variable: value})
        except ConfigError as exc:
            raise ConfigError(f"swept value {self.variable}={value!r} rejected: {exc}") from exc


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


def _sweep_row(cfg: SweepConfig, value: float, result: MetricResult, est) -> SweepRow:
    mc_mean = mc_stderr = abs_gap = passed = None
    if est is not None:
        mc_mean, mc_stderr = est.mean, est.stderr
        abs_gap = abs(result.value - est.mean)
        passed = abs_gap <= 3.0 * est.stderr + (1e-4 if cfg.metric == "outage" else 0.0)
    return SweepRow(cfg.variable, value, result.scenario, result.value,
                    mc_mean, mc_stderr, result.case_id or "", abs_gap, passed)


def run_sweep(configs, workers: int = 1) -> list[list[SweepRow]]:
    """Evaluate every (grid point, scenario) row of each config.

    Returns one row list per config, in grid order; every closed form is
    evaluated before the first draw.  Row k of a config draws its
    Monte-Carlo positions from seed ``mc.seed + k``.  The rows of all
    configs that share a seed and sample count form one group, so a
    figure's variants share each draw; one ``montecarlo.estimate_groups``
    call runs every group on ``workers`` threads, and each estimate equals
    the row's own one-job estimate.
    """
    configs = list(configs)
    closed = {}     # (config, row) -> (swept value, closed-form result)
    groups: dict[tuple[int, int], dict] = {}   # (n_samples, seed) -> {(config, row): job}
    for c, cfg in enumerate(configs):
        # bind every grid value first: an invalid one fails before any work
        points = [(v, cfg.params_at(v)) for v in cfg.grid().tolist()]
        for row, ((value, p), scenario) in enumerate(itertools.product(points, cfg.scenarios)):
            closed[c, row] = (value, evaluate(scenario, cfg.metric, p, cfg.nodes))
            if cfg.mc.enabled:
                groups.setdefault((cfg.mc.n_samples, cfg.mc.seed + row), {})[c, row] = (
                    scenario, cfg.metric, p)
    done = montecarlo.estimate_groups({k: group.values() for k, group in groups.items()}, workers)
    estimates = {row: est for k, group in groups.items() for row, est in zip(group, done[k])}
    return [[_sweep_row(cfg, *closed[c, row], estimates.get((c, row)))
             for row in range(cfg.steps * len(cfg.scenarios))] for c, cfg in enumerate(configs)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return format(value, ".12g")


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
# configuration file schema
# ---------------------------------------------------------------------------


def _boolean(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"not a boolean: {text!r}; expected one of {', '.join(states)}")
    return states[text.lower()]


def _scenarios(text: str) -> tuple[Scenario, ...]:
    return tuple(Scenario.parse(name) for name in text.split(",") if name.strip())


# section -> key -> converter of the key's text; int() rejects fractions and
# exponents.  Ranges are checked by what the values build (SweepConfig,
# SystemParams, McConfig), so the table checks only names and types.
CONFIG_SCHEMA = {
    "sweep": dict(metric=str, variable=str, start=float, stop=float, steps=int,
                  scenarios=_scenarios),
    "params": dict.fromkeys(("r", "h", "f_c", "sigma2_dbm", "sigma2", "gamma_t_db", "p_t",
                             "gamma_th", "gamma_th_db", "alpha", "l", "c"), float),
    "mc": dict(enabled=_boolean, n_samples=int, seed=int),
    "quadrature": dict(nodes=int),
    "output": dict(path=str),
}
REQUIRED_KEYS = (("sweep", "start"), ("sweep", "stop"), ("sweep", "steps"))


def read_config(path: str) -> dict[str, dict]:
    """Typed values of an INI config file, checked against ``CONFIG_SCHEMA``.

    Returns every schema section, holding the keys the file sets.  An
    unknown section or key, a missing required key and a value its
    converter rejects raise ``ConfigError`` naming it.
    """
    # no default section: [DEFAULT] is an unknown section, not keys copied
    # into every other one
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"), default_section=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path!r}")
    config = {section: {} for section in CONFIG_SCHEMA}
    for section in parser.sections():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown section [{section}]; expected {', '.join(CONFIG_SCHEMA)}")
        keys = CONFIG_SCHEMA[section]
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"{section}.{key}: unknown key; expected {', '.join(keys)}")
            try:
                config[section][key] = keys[key](parser.get(section, key))
            except (ValueError, configparser.Error) as exc:
                raise ConfigError(f"{section}.{key}: {exc}") from exc
    for section, key in REQUIRED_KEYS:
        if key not in config[section]:
            raise ConfigError(f"{section}.{key}: required key missing")
    return config


def build_params(options: dict[str, float]) -> SystemParams:
    """System parameters from the typed [params] values (see module docstring)."""
    for key, alternative in (("sigma2", "sigma2_dbm"), ("gamma_th", "gamma_th_db"),
                             ("p_t", "gamma_t_db")):
        if key in options and alternative in options:
            raise ConfigError(f"give params.{key} or params.{alternative}, not both")
    kwargs = {key: options[key] for key in ("r", "h", "f_c", "alpha", "l", "c", "sigma2",
                                            "gamma_th", "p_t", "gamma_t_db") if key in options}
    for key, name, to_linear in (("sigma2_dbm", "sigma2", dbm_to_watts),
                                 ("gamma_th_db", "gamma_th", db_to_linear)):
        if key in options:
            kwargs[name] = to_linear(options[key])
            if not 0.0 < kwargs[name] < np.inf:
                raise ConfigError(f"params.{key}: {name} = {kwargs[name]!r}")
    try:
        return SystemParams.reference(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _with_flags(args, sections: dict[str, dict]) -> dict[str, dict]:
    """``sections``, shaped as ``read_config`` returns them, with each flag given
    written over its key (see the module docstring) if they hold the key's section."""
    sections = dict(sections)
    for flag, section, key in (("seed", "mc", "seed"), ("mc_samples", "mc", "n_samples"),
                               ("nodes", "quadrature", "nodes"), ("out", "output", "path")):
        if getattr(args, flag, None) is not None and section in sections:
            sections[section] = {**sections[section], key: getattr(args, flag)}
    return sections


def _sweep_config(sections: dict[str, dict]) -> SweepConfig:
    """The sweep of every schema section; [params] holds its settings."""
    return SweepConfig(**sections["sweep"], settings=sections["params"],
                       mc=McConfig(**sections["mc"]), **sections["quadrature"],
                       **sections["output"])


def load_sweep_config(path: str, args) -> SweepConfig:
    """The sweep a config file describes, with the command's flags applied."""
    return _sweep_config(_with_flags(args, read_config(path)))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

# Preset notes: each preset holds SweepConfig's sweep fields and, per
# variant, its [params] settings over SystemParams.reference's (r = 25 m,
# alpha = 0.02, l = r/2, 105 dB).  Ids 2/5 compare region radii (half-length
# follows as r/2, not stated by the source curves); ids 4/7 sweep the
# half-length at the reference transmit SNR (105 dB shown for outage;
# adopted for rate as well).  Ids 5-7 are the rate curves of ids 2-4.
FIGURE_PRESETS: dict[int, dict] = {
    2: dict(metric="outage", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=tuple(Scenario),
            variants=[("r15", dict(r=15.0)), ("r25", dict(r=25.0))]),
    3: dict(metric="outage", variable="gamma_t_db", start=90.0, stop=125.0, steps=15,
            scenarios=(Scenario.FWL, Scenario.PWL),
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.04)]),
    4: dict(metric="outage", variable="l", start=1.0, stop=25.0, steps=25,
            scenarios=(Scenario.PWL,),
            variants=[(f"a{a}", dict(alpha=a)) for a in (0.01, 0.02, 0.03, 0.04)]),
}
FIGURE_PRESETS.update({i + 3: dict(preset, metric="rate") for i, preset in FIGURE_PRESETS.items()})


def figure_configs(figure_ids, args) -> list[SweepConfig]:
    """Each preset's sweeps, one per variant, flags applied; a repeated id runs once."""
    configs = []
    for figure_id in dict.fromkeys(figure_ids):
        if figure_id not in FIGURE_PRESETS:
            raise ConfigError(f"unknown figure id {figure_id!r}; expected 2-7")
        fields = dict(FIGURE_PRESETS[figure_id])
        for suffix, settings in fields.pop("variants"):
            path = os.path.join(args.out_dir or ".", f"figure{figure_id}_{suffix}.csv")
            configs.append(_sweep_config(_with_flags(args, {
                "sweep": fields, "params": settings, "mc": {"enabled": not args.no_mc},
                "quadrature": {}, "output": {"path": path}})))
    return configs


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------


def _lattice_checks(params: list[SystemParams], nodes: int):
    """Consistency identities between the four scenarios on random draws.

    The half-length degeneracies hold to rounding; the attenuation
    continuity rows are probed at alpha = 1e-9, where the exact gap is
    first order in alpha, so they carry an absolute 1e-6 band instead.
    """
    checks = []
    for p in params:
        full = p.with_(l=p.r)
        tiny = p.with_(alpha=1e-9)
        for name, q, left, right, outage_tol in (
                ("PWNL(l=r)=FWNL", full, Scenario.PWNL, Scenario.FWNL, 1e-9),
                ("PWL(l=r)=FWL", full, Scenario.PWL, Scenario.FWL, 1e-9),
                ("FWL(a~0)=FWNL", tiny, Scenario.FWL, Scenario.FWNL, 1e-6),
                ("PWL(a~0)=PWNL", tiny, Scenario.PWL, Scenario.PWNL, 1e-6)):
            for metric in ("outage", "rate"):
                value = evaluate(left, metric, q, nodes).value
                expected = evaluate(right, metric, q, nodes).value
                tol = outage_tol if metric == "outage" else 1e-6 * abs(expected)
                checks.append((f"{name} {metric}", value, expected, tol))
    return checks


def run_validation(args) -> int:
    """Lattice identities plus Monte-Carlo agreement; exit 1 on any failure."""
    sections = _with_flags(args, {"mc": {"n_samples": 1_000_000}, "quadrature": {"nodes": 2000}})
    mc, nodes = McConfig(**sections["mc"]), sections["quadrature"]["nodes"]
    rng = np.random.default_rng(mc.seed)
    draws = np.column_stack([
        rng.uniform(10.0, 40.0, 6),     # r
        rng.uniform(3.0, 15.0, 6),      # h
        rng.uniform(0.005, 0.05, 6),    # alpha
        rng.uniform(0.1, 1.0, 6),       # l / r
        rng.uniform(95.0, 120.0, 6),    # transmit SNR dB
    ])
    params = [build_params(dict(gamma_t_db=gt, r=r, h=h, alpha=alpha, l=l_frac * r))
              for r, h, alpha, l_frac, gt in draws]

    # checks are computed before the report starts, closed forms before the
    # first draw: a failure ends the command before any output or MC work
    checks = _lattice_checks(params, nodes)
    jobs = [(scenario, metric) for scenario in Scenario for metric in ("outage", "rate")]
    closed = [[evaluate(*job, p, nodes).value for job in jobs] for p in params]
    groups = {(mc.n_samples, mc.seed + i): [(*job, p) for job in jobs]
              for i, p in enumerate(params)}
    estimates = montecarlo.estimate_groups(groups, args.workers)
    for i, (values, group) in enumerate(zip(closed, estimates.values())):
        for (scenario, metric), value, est in zip(jobs, values, group):
            checks.append((f"MC {scenario.name} {metric} #{i}", value, est.mean,
                           3.0 * est.stderr + 1e-4))

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


def _at_least(minimum: int):
    """An argparse type: an integer count of at least ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads, so argparse rejects
    # the rest with exit 2 and names them
    nodes = argparse.ArgumentParser(add_help=False)
    nodes.add_argument("--nodes", type=_at_least(2),
                       help="rate quadrature node count, at least 2 (sets [quadrature] nodes)")
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--seed", type=int, help="Monte-Carlo seed (sets [mc] seed)")
    mc.add_argument("--mc-samples", type=int,
                    help="Monte-Carlo sample count per estimate (sets [mc] n_samples)")
    mc.add_argument("--workers", type=_at_least(1), default=1,
                    help="threads over the command's Monte-Carlo chunks")

    parser = argparse.ArgumentParser(
        prog="pinchpass",
        description="Outage/rate analysis for pinching-antenna coverage of a circular region.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", parents=[nodes, mc],
                             help="run a sweep described by a config file")
    p_sweep.add_argument("--config", required=True, help="INI config file")
    p_sweep.add_argument("--out", help="output CSV (sets [output] path)")
    p_sweep.add_argument("--gnuplot", action="store_true",
                         help="also write a gnuplot script next to the CSV")

    p_fig = sub.add_parser("figure", parents=[nodes, mc],
                           help="run bundled presets (ids 2-7) as one sweep")
    p_fig.add_argument("ids", metavar="id", type=int, nargs="+",
                       help="figure preset ids, 2-7; a repeated id runs once")
    p_fig.add_argument("--out", dest="out_dir", metavar="OUT",
                       help="output directory for the CSVs")
    p_fig.add_argument("--no-mc", action="store_true",
                       help="skip the Monte-Carlo columns")
    p_fig.add_argument("--gnuplot", action="store_true")

    sub.add_parser("validate", parents=[nodes, mc],
                   help="closed-form vs Monte-Carlo agreement report")

    p_opt = sub.add_parser("optimal-length", parents=[nodes],
                           help="search the best waveguide half-length")
    p_opt.add_argument("--out", help="also write the searched curve as CSV")
    p_opt.add_argument("--metric", choices=("outage", "rate"), default="rate")
    for name in ("--gamma-t-db", "--alpha", "--r", "--h", "--l-start", "--l-stop"):
        p_opt.add_argument(name, type=float)
    p_opt.add_argument("--l-steps", type=_at_least(1))
    return parser


def _write_sweeps(configs: list[SweepConfig], args) -> int:
    """Run the sweeps in one ``run_sweep`` call (shared draws); write each CSV."""
    for cfg, rows in zip(configs, run_sweep(configs, workers=args.workers)):
        write_csv(rows, cfg.path)
        if args.gnuplot:
            write_gnuplot(cfg.path, cfg.metric, cfg.scenarios)
        print(f"{cfg.path}: {summarize(rows)}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    return _write_sweeps([load_sweep_config(args.config, args)], args)


def _cmd_figure(args) -> int:
    configs = figure_configs(args.ids, args)
    os.makedirs(args.out_dir or ".", exist_ok=True)
    return _write_sweeps(configs, args)


def _cmd_optimal_length(args) -> int:
    # a ValueError here is a rejected setting: main reports it with exit 2;
    # unset flags take SystemParams.reference's values, half-length r/2
    p = build_params({key: getattr(args, key) for key in ("gamma_t_db", "alpha", "r", "h")
                      if getattr(args, key) is not None})
    try:
        result = optimal_length_search(p, metric=args.metric,
                                       grid_spec=(args.l_start, args.l_stop, args.l_steps),
                                       **_with_flags(args, {"quadrature": {}})["quadrature"])
    except ValueError as exc:   # argparse checked the metric and nodes: the grid is at fault
        raise ValueError(f"{exc}; the grid is set by --l-start, --l-stop and --l-steps") from None
    if args.out:
        rows = [SweepRow("l", l, Scenario.PWL if p.alpha > 0 else Scenario.PWNL,
                         v, None, None, "", None, None) for l, v in result.grid]
        write_csv(rows, args.out)
        print(f"curve written to {args.out}")
    print(f"best half-length {result.best_l:.3f} m with {result.metric} "
          f"{result.best_value:.9g}")
    # past a stop at r there is no half-length to search
    if result.grid_end == "start" or (result.grid_end == "stop" and result.best_l < p.r):
        print(f"the optimum is the grid {result.grid_end}: it may lie beyond the grid")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
    except ArithmeticError as exc:
        # a library value that failed its own check, e.g. a closed form
        # outside [0, 1]: a defect of the library, not of the configuration
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
