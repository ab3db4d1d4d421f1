import argparse
import configparser
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import pinchpass
from pinchpass import _outage_lossy, cli, evaluate, montecarlo
from pinchpass.cli import (
    CONFIG_SCHEMA,
    CSV_HEADER,
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    McConfig,
    SweepConfig,
    SweepRow,
    build_params,
    entry,
    load_sweep_config,
    main,
    read_config,
    run_sweep,
    write_csv,
)
from pinchpass.params import DEFAULT_QUADRATURE_NODES, Scenario, SystemParams

BASE_CONFIG = """
[sweep]
metric = outage
variable = gamma_t_db
start = 95
stop = 115
steps = 5
scenarios = FWNL, FWL, PWNL, PWL

[params]
r = 25.0
h = 10.0
sigma2_dbm = -90
gamma_th = 100
alpha = 0.02
l = 12.5

[mc]
enabled = {mc_enabled}
n_samples = 20000
seed = 31415

[output]
path = {out}
"""


def write_config(tmp_path, name="sweep.ini", mc_enabled="true", out="out.csv", extra=""):
    path = tmp_path / name
    text = BASE_CONFIG.format(mc_enabled=mc_enabled, out=tmp_path / out) + extra
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_sweep_writes_csv_with_monotone_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 5 * 4
    by_scenario = {}
    for row in rows:
        by_scenario.setdefault(row[2], []).append(float(row[3]))
    for scenario, values in by_scenario.items():
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:])), scenario
    assert "MC agreement" in capsys.readouterr().out


def test_sweep_output_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    first = (tmp_path / "out.csv").read_bytes()
    assert main(["sweep", "--config", cfg, "--workers", "4"]) == EXIT_OK
    assert (tmp_path / "out.csv").read_bytes() == first


def test_sweep_without_mc_leaves_columns_empty(tmp_path):
    cfg = write_config(tmp_path, mc_enabled="false")
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    for row in read_rows(tmp_path / "out.csv"):
        assert row[4] == "" and row[5] == "" and row[7] == "" and row[8] == ""
        assert row[3] != ""


def _failing_g2_sweep(tmp_path, monkeypatch, mc_enabled: str) -> str:
    # a sweep whose g2 closed forms read outside [0, 1]: the classifier's
    # two g roots are swapped
    classify = _outage_lossy._classify

    def swapped(pc):
        report = classify(pc)
        if len(report.g_roots) != 2:
            return report
        return report._replace(g_roots=report.g_roots[::-1])

    monkeypatch.setattr(_outage_lossy, "_classify", swapped)
    path = tmp_path / "g2.ini"
    path.write_text(textwrap.dedent(f"""
        [sweep]
        start = 110
        stop = 111
        steps = 2
        scenarios = PWL

        [params]
        alpha = 0.005
        l = 12.5

        [mc]
        enabled = {mc_enabled}
        n_samples = 1000

        [output]
        path = {tmp_path / "g2.csv"}
        """))
    return str(path)


def test_numerical_error_exits_4_naming_the_case(tmp_path, monkeypatch, capsys):
    # a closed form outside [0, 1] is a library defect: it is neither a
    # configuration error (2) nor a failed validation (1)
    path = _failing_g2_sweep(tmp_path, monkeypatch, "false")
    assert main(["sweep", "--config", path]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "g2-mid-mid" in err
    assert not (tmp_path / "g2.csv").exists()


def _recording_estimate_groups(monkeypatch, record):
    """Patch ``montecarlo.estimate_groups`` to call ``record(groups, workers)`` first."""
    estimate_groups = montecarlo.estimate_groups

    def recording(groups, workers=1):
        record(groups, workers)
        return estimate_groups(groups, workers)

    monkeypatch.setattr(montecarlo, "estimate_groups", recording)


def test_failing_closed_form_ends_the_sweep_before_any_draw(tmp_path, monkeypatch, capsys):
    calls = []
    _recording_estimate_groups(monkeypatch, lambda groups, workers: calls.append(list(groups)))
    path = _failing_g2_sweep(tmp_path, monkeypatch, "true")
    assert main(["sweep", "--config", path]) == EXIT_NUMERIC
    assert "g2-mid-mid" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "g2.csv").exists()


def test_failing_closed_form_ends_validate_before_any_draw(monkeypatch, capsys):
    # a closed form that raises on a drawn configuration (l < r, not the
    # lattice checks' alpha = 1e-9): exit 4, and no Monte-Carlo work is done
    calls = []
    _recording_estimate_groups(monkeypatch, lambda groups, workers: calls.append(groups))

    def failing(scenario, metric, p, nodes):
        if scenario is Scenario.PWL and metric == "rate" and p.l < p.r and p.alpha != 1e-9:
            raise ArithmeticError("injected closed-form failure")
        return evaluate(scenario, metric, p, nodes)

    monkeypatch.setattr(cli, "evaluate", failing)
    assert main(["validate"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "injected closed-form failure" in captured.err and captured.out == ""
    assert calls == []


def test_sweep_rejects_empty_scenarios(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(BASE_CONFIG.format(mc_enabled="true", out=tmp_path / "x.csv")
                    .replace("scenarios = FWNL, FWL, PWNL, PWL", "scenarios ="))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert "scenario" in capsys.readouterr().err


def test_sweep_rejects_unknown_key_and_missing_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    with open(cfg, "a") as fh:   # duplicate section: malformed config
        fh.write("\n[params]\nbogus = 1\n")
    assert main(["sweep", "--config", cfg]) == EXIT_CONFIG
    assert "malformed" in capsys.readouterr().err

    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text(BASE_CONFIG.format(mc_enabled="true", out=tmp_path / "x.csv")
                       .replace("alpha = 0.02", "bogus = 1"))
    assert main(["sweep", "--config", str(bad_key)]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err

    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == EXIT_CONFIG


def test_removed_paper_c_key_is_an_unknown_key(tmp_path, capsys):
    # the exact speed of light is `c = 299792458`; the reference uses 3e8
    cfg = Path(write_config(tmp_path))
    cfg.write_text(cfg.read_text().replace("[params]\n", "[params]\npaper_c = true\n"))
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "paper_c" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv,flag", [
    (["validate", "--out", "x"], "--out"),
    (["optimal-length", "--seed", "1"], "--seed"),
    (["optimal-length", "--mc-samples", "5"], "--mc-samples"),
    (["optimal-length", "--workers", "3"], "--workers"),
    (["figure", "7", "--no-mc", "--paper-c"], "--paper-c"),
    (["sweep", "--config", "unread.ini", "--paper-c"], "--paper-c"),
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, flag, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""
    assert not list(tmp_path.iterdir())


SWEEP = ["sweep", "--config", "sweep.ini"]


@pytest.mark.parametrize("argv,old,new,field", [
    # type and name errors the schema catches
    pytest.param(SWEEP, "enabled = true", "enabled = ture", "mc.enabled", id="boolean-typo"),
    pytest.param(SWEEP, "seed = 31415", "seed = 31415\nn_sample = 5", "mc.n_sample",
                 id="unknown-key"),
    pytest.param(SWEEP, "[output]", "[plot]\nstyle = lines\n\n[output]", "[plot]",
                 id="unknown-section"),
    pytest.param(SWEEP, "[output]", "[DEFAULT]\nr = 30\n\n[output]", "[DEFAULT]",
                 id="default-section"),
    pytest.param(SWEEP, "[output]", "[outputx]", "[outputx]", id="misspelled-section"),
    pytest.param(SWEEP, "seed = 31415", "seed = 1.7", "mc.seed", id="fractional-seed"),
    pytest.param(SWEEP, "n_samples = 20000", "n_samples = 2e4", "mc.n_samples",
                 id="exponent-integer"),
    pytest.param(SWEEP, "[output]", "[quadrature]\nnodes = abc\n\n[output]", "quadrature.nodes",
                 id="non-integer-nodes"),
    pytest.param(SWEEP, "start = 95\n", "", "sweep.start", id="missing-start"),
    pytest.param(SWEEP, "steps = 5", "steps = 2.5", "sweep.steps", id="fractional-steps"),
    pytest.param(SWEEP, "r = 25.0", "r = abc", "params.r", id="non-number"),
    pytest.param(SWEEP, "scenarios = FWNL, FWL, PWNL, PWL", "scenarios = FWNL, XWL",
                 "sweep.scenarios", id="unknown-scenario"),
    # a sample count below the minimum, with Monte-Carlo off
    pytest.param(["figure", "7", "--no-mc", "--mc-samples", "5", "--seed", "3"],
                 "", "", "--mc-samples", id="figure-no-mc-samples"),
    pytest.param(SWEEP + ["--mc-samples", "5"], "enabled = true", "enabled = false", "--mc-samples",
                 id="sweep-mc-off-samples"),
    # a node count below 2 where only outages are evaluated
    pytest.param(["figure", "2", "--no-mc", "--nodes", "-5"], "", "", "--nodes",
                 id="figure-outage-nodes"),
    pytest.param(["optimal-length", "--metric", "outage", "--nodes", "0"], "", "", "--nodes",
                 id="optimal-length-outage-nodes"),
    pytest.param(SWEEP, "[output]", "[quadrature]\nnodes = 1\n\n[output]", "quadrature.nodes",
                 id="sweep-outage-nodes"),
    # conflicts and ranges checked by what the values build
    pytest.param(SWEEP, "sigma2_dbm = -90", "sigma2_dbm = -90\nsigma2 = 1e-12", "params.sigma2",
                 id="sigma2-twice"),
    pytest.param(SWEEP, "gamma_th = 100", "gamma_th = 100\ngamma_th_db = 20", "params.gamma_th",
                 id="gamma_th-twice"),
    pytest.param(SWEEP, "l = 12.5", "l = 12.5\np_t = 1\ngamma_t_db = 100", "params.p_t",
                 id="p_t-twice"),
    pytest.param(SWEEP, "r = 25.0", "r = -25.0", "SystemParams.r", id="negative-radius"),
    pytest.param(SWEEP, "metric = outage", "metric = snr", "sweep.metric", id="bad-metric"),
    pytest.param(SWEEP, "variable = gamma_t_db", "variable = h", "sweep.variable",
                 id="bad-variable"),
    pytest.param(SWEEP, "steps = 5", "steps = 1", "sweep.steps", id="one-step"),
    pytest.param(SWEEP, "stop = 115", "stop = 90", "sweep.stop", id="stop-below-start"),
    pytest.param(SWEEP, "stop = 115", "stop = inf", "sweep.stop", id="infinite-stop"),
    pytest.param(SWEEP, "variable = gamma_t_db", "variable = l", "swept value l=95",
                 id="swept-value-out-of-range"),
    pytest.param(SWEEP, "scenarios = FWNL, FWL, PWNL, PWL", "scenarios =", "sweep.scenarios",
                 id="no-scenarios"),
    # a seed outside [0, 2**64), named by its source, before any output
    pytest.param(["figure", "7", "--seed", "-1", "--mc-samples", "1000", "--out", "D"], "", "",
                 "--seed", id="figure-negative-seed"),
    pytest.param(["validate", "--seed", "-1"], "", "", "--seed", id="validate-negative-seed"),
    pytest.param(["validate", "--seed", str(2 ** 64)], "", "", "--seed", id="seed-2**64"),
    pytest.param(SWEEP, "seed = 31415", "seed = -1", "mc.seed", id="config-negative-seed"),
    # dB values whose linear ratio overflows a float
    pytest.param(["optimal-length", "--gamma-t-db", "4000"], "", "", "gamma_t_db",
                 id="gamma_t_db-overflow"),
    pytest.param(["optimal-length", "--l-steps", "0"], "", "", "--l-steps",
                 id="optimal-length-zero-steps"),
    # a grid step below r/2500 names the flags that set the grid
    pytest.param(["optimal-length", "--l-steps", "100000"], "", "", "--l-steps",
                 id="optimal-length-step-below-r-over-2500"),
    # the grid optimum is the best entry of the --out curve: no flag selects it
    pytest.param(["optimal-length", "--no-refine"], "", "", "--no-refine",
                 id="optimal-length-no-refine"),
    # the Monte-Carlo agreement bounds are constants: no flag or key loosens them
    pytest.param(["validate", "--tol-scale", "1"], "", "", "--tol-scale",
                 id="validate-tol-scale"),
    pytest.param(SWEEP, "seed = 31415", "seed = 31415\ntolerance_outage = 1e-4",
                 "mc.tolerance_outage", id="config-tolerance-outage"),
    pytest.param(SWEEP, "seed = 31415", "seed = 31415\ntolerance_rate = 0", "mc.tolerance_rate",
                 id="config-tolerance-rate"),
    pytest.param(["optimal-length", "--l-start", "30"], "", "",
                 "grid start 30.0 outside (0, r] = (0, 25.0]", id="optimal-length-start-beyond-r"),
    pytest.param(["optimal-length", "--l-stop", "30"], "", "",
                 "grid stop 30.0 outside [start, r] = [0.5, 25.0]", id="optimal-length-stop-beyond-r"),
    pytest.param(SWEEP, "sigma2_dbm = -90", "sigma2_dbm = 4000", "params.sigma2_dbm",
                 id="sigma2_dbm-overflow"),
    # a radius whose square overflows: no constants to derive
    pytest.param(SWEEP, "r = 25.0", "r = 1e300", "SystemParams.r = 1e+300", id="r-overflow"),
    pytest.param(SWEEP, "stop = 115", "stop = 4000", "swept value gamma_t_db=4000",
                 id="swept-gamma_t_db-overflow"),
    # no grid point of a gamma_t_db sweep can use a given p_t
    pytest.param(SWEEP, "l = 12.5", "l = 12.5\np_t = 1", "params.p_t",
                 id="p_t-under-gamma_t_db-sweep"),
    pytest.param(["validate", "--mc-samples", "10"], "", "", "--mc-samples",
                 id="validate-mc-samples"),
])
def test_configuration_error_exits_2_naming_its_field(argv, old, new, field, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    text = BASE_CONFIG.format(mc_enabled="true", out="out.csv")
    assert old in text
    (tmp_path / "sweep.ini").write_text(text.replace(old, new, 1))
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["sweep.ini"]


MUTATION_VALUES = ("", "nan", "inf", "-inf", "-1", "0", "-0", "1e-300", "1e300", "1e400", "abc",
                   "1.5", "3", "2e9")
# setting one spelling of a parameter drops the example's other spelling
ALTERNATIVES = {"sigma2": "sigma2_dbm", "p_t": "gamma_t_db", "gamma_th_db": "gamma_th"}


def test_every_mutated_config_key_runs_or_is_named(tmp_path, monkeypatch, capsys):
    # the documented example with Monte-Carlo off and one schema key (all but
    # output.path) set to each value, for both metrics: every run exits 0 or
    # 2, a run that exits 2 names the key it set, and none raises or warns
    monkeypatch.chdir(tmp_path)
    example = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section=None)
    example.read_string(_docstring_example())
    keys = [(section, key) for section, keys in CONFIG_SCHEMA.items() for key in keys
            if section != "output"]
    codes = []
    for (section, key), value, metric in itertools.product(keys, MUTATION_VALUES,
                                                           ("outage", "rate")):
        config = {name: dict(example[name]) for name in example.sections()}
        config["sweep"]["metric"], config["mc"]["enabled"] = metric, "false"
        config[section].pop(ALTERNATIVES.get(key), None)
        config[section][key] = value
        (tmp_path / "mutated.ini").write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in config.items()))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", "mutated.ini"])
        err = capsys.readouterr().err
        codes.append(code)
        assert caught == [], (section, key, value)
        assert code in (EXIT_OK, EXIT_CONFIG), (section, key, value, err)
        if code:
            assert re.search(rf"(?<!\w){key}(?!\w)", err), (section, key, value, err)
    assert len(codes) == 22 * 14 * 2 and EXIT_CONFIG in codes


def test_sweep_without_scenarios_runs_all_four(tmp_path):
    text = BASE_CONFIG.format(mc_enabled="false", out=tmp_path / "out.csv")
    path = tmp_path / "sweep.ini"
    path.write_text(text.replace("scenarios = FWNL, FWL, PWNL, PWL\n", ""))
    assert "scenarios =" not in path.read_text()
    assert main(["sweep", "--config", str(path)]) == EXIT_OK
    rows = read_rows(tmp_path / "out.csv")
    assert [row[2] for row in rows] == ["FWNL", "FWL", "PWNL", "PWL"] * 5


def _sweep_ini(tmp_path, name: str, sweep: str, params: str) -> str:
    path = tmp_path / f"{name}.ini"
    path.write_text(f"[sweep]\n{sweep}\n\n[params]\n{params}\n\n[mc]\nenabled = false\n\n"
                    f"[output]\npath = {tmp_path / name}.csv\n")
    return str(path)


@pytest.mark.parametrize("metric", ["outage", "rate"])
def test_gamma_t_db_sweep_builds_each_system_from_its_own_transmit_snr(metric, tmp_path):
    # p_t = sigma2 * 10^(gamma_t_db/10) would overflow at the unswept
    # default of 105 dB, but is finite (1e308 W at most) over the swept 90-100 dB
    sweep = f"metric = {metric}\nstart = 90\nstop = 100\nsteps = 3\nscenarios = PWL"
    assert main(["sweep", "--config", _sweep_ini(tmp_path, "loud", sweep,
                                                  "sigma2_dbm = 3010")]) == EXIT_OK
    assert main(["sweep", "--config", _sweep_ini(tmp_path, "quiet", sweep, "")]) == EXIT_OK
    loud, quiet = read_rows(tmp_path / "loud.csv"), read_rows(tmp_path / "quiet.csv")
    assert len(loud) == 3
    # the closed forms read the transmit SNR alone
    for row, expected in zip(loud, quiet):
        assert row[:3] == expected[:3]
        assert float(row[3]) == pytest.approx(float(expected[3]), rel=1e-12, abs=1e-15)


def test_swept_key_replaces_its_params_value(tmp_path):
    # l = 30 lies beyond r = 25, but no grid point uses it
    sweep = "variable = l\nstart = 5\nstop = 10\nsteps = 3"
    assert main(["sweep", "--config", _sweep_ini(tmp_path, "set", sweep, "l = 30")]) == EXIT_OK
    assert main(["sweep", "--config", _sweep_ini(tmp_path, "unset", sweep, "")]) == EXIT_OK
    assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "unset.csv").read_bytes()
    assert len(read_rows(tmp_path / "set.csv")) == 3 * 4


def test_radius_without_half_length_runs_at_half_the_radius(tmp_path):
    # every column, Monte-Carlo included, is that of the sweep setting l = r/2
    base = BASE_CONFIG.format(mc_enabled="true", out=tmp_path / "{name}.csv")
    for name, params in (("unset", "r = 15.0"), ("set", "r = 15.0\nl = 7.5")):
        text = base.replace("r = 25.0", params).replace("l = 12.5\n", "")
        (tmp_path / f"{name}.ini").write_text(text.replace("{name}", name))
        assert main(["sweep", "--config", str(tmp_path / f"{name}.ini")]) == EXIT_OK
    assert (tmp_path / "unset.csv").read_bytes() == (tmp_path / "set.csv").read_bytes()
    assert len(read_rows(tmp_path / "set.csv")) == 5 * 4


def test_radius_sweep_without_half_length_runs_below_the_reference_half_length(tmp_path):
    # the half-length follows each swept radius as r/2, from r = 10 m up
    sweep = "metric = rate\nvariable = r\nstart = 10\nstop = 40\nsteps = 4\nscenarios = PWL"
    assert main(["sweep", "--config", _sweep_ini(tmp_path, "r", sweep, "")]) == EXIT_OK
    rows = read_rows(tmp_path / "r.csv")
    assert [float(row[1]) for row in rows] == [10.0, 20.0, 30.0, 40.0]
    for row in rows:
        p = SystemParams.reference(r=float(row[1]), l=float(row[1]) / 2)
        assert row[3] == format(evaluate(Scenario.PWL, "rate", p).value, ".12g")


def test_params_alternative_spellings_build_the_same_system():
    reference = SystemParams.reference()
    assert build_params({}) == reference
    assert build_params({"gamma_th_db": 20.0}) == reference.with_(gamma_th=100.0)
    assert build_params({"sigma2": 1e-12, "p_t": 1e-3}) == reference.with_(sigma2=1e-12, p_t=1e-3)


def _readme_example() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("Sweep config (INI):")[1].split("```ini\n")[1].split("```")[0]


def _docstring_example() -> str:
    lines = cli.__doc__.split("::\n", 1)[1].splitlines()
    return textwrap.dedent("\n".join(
        itertools.takewhile(lambda line: not line or line.startswith("    "), lines)))


@pytest.mark.parametrize("example", [_readme_example, _docstring_example])
def test_documented_config_examples_pass_the_schema(example, tmp_path):
    path = tmp_path / "example.ini"
    path.write_text(example())
    config = read_config(str(path))
    assert all(config[section] for section in CONFIG_SCHEMA)
    flags = argparse.Namespace(mc_samples=None, seed=None, nodes=None, out=None)
    assert load_sweep_config(str(path), flags).scenarios == tuple(Scenario)


def test_readme_lists_every_schema_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(): line for line in readme.splitlines()
            if line.startswith("| `[")}
    assert set(rows) == {f"`[{section}]`" for section in CONFIG_SCHEMA}
    for section, keys in CONFIG_SCHEMA.items():
        for key in keys:
            assert f"`{key}`" in rows[f"`[{section}]`"], f"{section}.{key}"


def test_sweep_row_k_draws_from_seed_plus_k():
    # a repeated scenario gets its own row's seed
    cfg = SweepConfig(metric="outage", variable="gamma_t_db", start=105.0, stop=110.0,
                      steps=2, scenarios=(Scenario.FWL, Scenario.FWL, Scenario.PWL),
                      settings={}, mc=McConfig(n_samples=20000, seed=31415))
    [rows] = run_sweep([cfg])
    assert [row.scenario for row in rows] == list(cfg.scenarios) * 2
    for k, row in enumerate(rows):
        p = cfg.params_at(row.swept_value)
        assert row.mc_mean == montecarlo.estimate_outage(row.scenario, p, 20000, 31415 + k).mean
    assert rows[0].mc_mean != rows[1].mc_mean


def _mixed_mc_configs() -> list[SweepConfig]:
    # two MC configs that share every row seed (one group per seed) around
    # one without MC
    fields = dict(variable="gamma_t_db", start=100.0, stop=110.0, steps=3,
                  scenarios=(Scenario.FWNL, Scenario.PWL))
    mc = McConfig(n_samples=2000, seed=271)
    return [SweepConfig(metric="outage", settings={"alpha": 0.01}, mc=mc, **fields),
            SweepConfig(metric="rate", settings={}, nodes=64, mc=McConfig(enabled=False),
                        **fields),
            SweepConfig(metric="rate", settings={"alpha": 0.04}, mc=mc, **fields)]


def test_sweep_mixing_mc_on_and_off_gives_the_same_rows_at_any_worker_count():
    configs = _mixed_mc_configs()
    rows = run_sweep(configs, workers=1)
    assert run_sweep(configs, workers=3) == rows
    # each config's rows are those of its own sweep
    assert rows == [run_sweep([cfg])[0] for cfg in configs]
    assert [{row.mc_mean is None for row in rows[c]} for c in range(3)] \
        == [{False}, {True}, {False}]


@pytest.mark.parametrize("workers", [0, 1])
def test_sweep_below_two_workers_runs_on_the_calling_thread(workers, monkeypatch):
    threads = set()
    _recording_estimate_groups(monkeypatch, lambda *_: threads.add(threading.get_ident()))
    sample_unit_disk = montecarlo.sample_unit_disk

    def drawing(rng, size, out=None):
        threads.add(threading.get_ident())
        return sample_unit_disk(rng, size, out)

    monkeypatch.setattr(montecarlo, "sample_unit_disk", drawing)
    run_sweep(_mixed_mc_configs(), workers=workers)
    assert threads == {threading.get_ident()}


def test_sweep_reports_io_error(tmp_path):
    cfg = write_config(tmp_path, out="no_dir/deep/out.csv")
    assert main(["sweep", "--config", cfg]) == EXIT_IO


def test_gnuplot_script_emitted(tmp_path):
    cfg = write_config(tmp_path, mc_enabled="false")
    assert main(["sweep", "--config", cfg, "--gnuplot"]) == EXIT_OK
    script = (tmp_path / "out.gp").read_text()
    assert "plot" in script and "FWNL" in script


def test_seed_flag_overrides_the_config_and_no_environment_variable_is_read(tmp_path,
                                                                             monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"

    def run(*flags) -> bytes:
        assert main(["sweep", "--config", cfg, *flags]) == EXIT_OK
        return out.read_bytes()

    config_bytes = run()
    # the config's seed is 31415
    assert run("--seed", "999") != config_bytes
    assert run("--seed", "31415") == config_bytes
    monkeypatch.setenv("PINCHPASS_SEED", "999")
    assert run() == config_bytes


# each flag, the config key it sets and a value for both
FLAG_KEYS = [("--seed", "mc", "seed", "999"), ("--mc-samples", "mc", "n_samples", "3000"),
             ("--nodes", "quadrature", "nodes", "32"), ("--out", "output", "path", "flag.csv")]


@pytest.mark.parametrize("flag,section,key,value", FLAG_KEYS, ids=[pair[0] for pair in FLAG_KEYS])
def test_each_flag_writes_the_bytes_of_its_config_key_and_wins_over_it(flag, section, key, value,
                                                                      tmp_path, monkeypatch):
    # a rate sweep with Monte-Carlo on, so every one of the four values reaches the CSV
    base = {"sweep": {"metric": "rate", "start": "100", "stop": "110", "steps": "3",
                      "scenarios": "FWL, PWL"},
            "mc": {"n_samples": "2000", "seed": "31415"},
            "quadrature": {"nodes": "64"}, "output": {"path": "key.csv"}}

    def run(name, sections, *flags) -> dict[str, bytes]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        config = configparser.ConfigParser()
        config.read_dict(sections)
        with open("sweep.ini", "w") as fh:
            config.write(fh)
        assert main(["sweep", "--config", "sweep.ini", *flags]) == EXIT_OK
        return {path.name: path.read_bytes() for path in run_dir.glob("*.csv")}

    without_key = {k: v for k, v in base[section].items() if k != key}
    flag_alone = run("flag", {**base, section: without_key}, flag, value)
    assert run("key", {**base, section: {**base[section], key: value}}) == flag_alone
    assert run("both", base, flag, value) == flag_alone
    assert run("neither", base) != flag_alone


def test_each_command_takes_its_defaults_from_one_place(monkeypatch, capsys):
    args = cli._build_parser().parse_args(["figure", *map(str, cli.FIGURE_PRESETS)])
    configs = cli.figure_configs(cli.FIGURE_PRESETS, args)
    assert len(configs) == 18
    assert {cfg.mc for cfg in configs} == {McConfig()}
    assert {cfg.nodes for cfg in configs} == {DEFAULT_QUADRATURE_NODES}
    # validate draws 10^6 samples per estimate from seed 20260810 + i and
    # evaluates at 2000 nodes; the estimates are stubbed, so nothing is drawn
    keys, nodes = [], set()

    def estimating(groups, workers=1):
        keys.extend(groups)
        return {key: [montecarlo.McEstimate(0.5, 0.0, *key)] * len(jobs)
                for key, jobs in groups.items()}

    def evaluating(scenario, metric, p, n):
        nodes.add(n)
        return evaluate(scenario, metric, p, n)

    monkeypatch.setattr(montecarlo, "estimate_groups", estimating)
    monkeypatch.setattr(cli, "evaluate", evaluating)
    assert main(["validate"]) in (EXIT_OK, EXIT_VALIDATION)
    capsys.readouterr()
    assert keys == [(1_000_000, 20260810 + i) for i in range(6)]
    assert nodes == {2000}


def test_figure_presets_write_expected_files(tmp_path):
    assert main(["figure", "2", "--out", str(tmp_path), "--mc-samples", "20000"]) == EXIT_OK
    for suffix in ("r15", "r25"):
        rows = read_rows(tmp_path / f"figure2_{suffix}.csv")
        assert len(rows) == 15 * 4
        checked = [row for row in rows if row[8] != ""]
        passed = sum(row[8] == "1" for row in checked)
        assert passed >= 0.95 * len(checked)
        for scenario in ("FWNL", "FWL", "PWNL", "PWL"):
            vals = [float(r[3]) for r in rows if r[2] == scenario]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_figure3_lossy_ordering_at_high_snr(tmp_path):
    assert main(["figure", "3", "--out", str(tmp_path), "--no-mc"]) == EXIT_OK
    for suffix in ("a0.02", "a0.04"):
        rows = read_rows(tmp_path / f"figure3_{suffix}.csv")
        fwl = {float(r[1]): float(r[3]) for r in rows if r[2] == "FWL"}
        pwl = {float(r[1]): float(r[3]) for r in rows if r[2] == "PWL"}
        for g in fwl:
            if g >= 110.0 and fwl[g] > 1e-12:
                assert fwl[g] > pwl[g]


def test_figure7_rate_curves_have_interior_maximum(tmp_path):
    assert main(["figure", "7", "--out", str(tmp_path), "--no-mc"]) == EXIT_OK
    for alpha in ("a0.01", "a0.02", "a0.03", "a0.04"):
        rows = read_rows(tmp_path / f"figure7_{alpha}.csv")
        values = [float(r[3]) for r in rows]
        best = max(values)
        assert best > values[0] and best > values[-1]


def test_figure_gnuplot_writes_one_script_per_variant(tmp_path):
    assert main(["figure", "3", "--no-mc", "--gnuplot", "--out", str(tmp_path)]) == EXIT_OK
    scripts = sorted(path.name for path in tmp_path.glob("*.gp"))
    assert scripts == ["figure3_a0.01.gp", "figure3_a0.02.gp", "figure3_a0.04.gp"]
    assert "figure3_a0.02.csv" in (tmp_path / "figure3_a0.02.gp").read_text()


def test_figure_nodes_flag_reaches_the_rate_quadrature(tmp_path):
    assert main(["figure", "7", "--no-mc", "--nodes", "2000", "--out", str(tmp_path)]) == EXIT_OK
    base = SystemParams.reference(gamma_t_db=105.0, alpha=0.02)
    for row in read_rows(tmp_path / "figure7_a0.02.csv"):
        p = base.with_(l=float(row[1]))
        assert row[3] == format(evaluate(Scenario.PWL, "rate", p, 2000).value, ".12g")


# the documented codes, as numbers: the script's callers read these, not the constants
@pytest.mark.parametrize("argv,code", [
    (["optimal-length", "--l-steps", "5"], 0),
    (["validate", "--out", "x"], 2),
    # the output directory lies below a regular file
    (["figure", "7", "--no-mc", "--out", "file/sub"], 3),
])
def test_entry_exits_with_the_code_of_main(argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(sys, "argv", ["pinchpass", *argv])
    with pytest.raises(SystemExit) as exit_info:
        entry()
    assert exit_info.value.code == code


def test_figure_ids_run_as_one_sweep_with_the_bytes_of_single_runs(tmp_path, monkeypatch,
                                                                   capsys):
    calls, seeds = [], []

    def counting(groups, workers):
        calls.append(workers)
        seeds.extend(seed for _, seed in groups)

    _recording_estimate_groups(monkeypatch, counting)
    flags = ["--mc-samples", "1000", "--seed", "12345"]
    assert main(["figure", "2", "3", "4", "5", "6", "7", "2", "--out", str(tmp_path / "all"),
                 *flags]) == EXIT_OK
    # a repeated id runs once; one estimate_groups call, one group per seed:
    # the 60 rows of figure 2
    assert len(capsys.readouterr().out.splitlines()) == 18
    assert calls == [1] and sorted(seeds) == list(range(12345, 12345 + 60))
    calls.clear()
    seeds.clear()
    for fig in range(2, 8):
        assert main(["figure", str(fig), "--out", str(tmp_path / "one"), *flags]) == EXIT_OK
    assert calls == [1] * 6 and len(seeds) == 230
    names = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert len(names) == 18
    assert sorted(path.name for path in (tmp_path / "all").iterdir()) == names
    for name in names:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("ids,workers,files", [
    # figures 2 and 5 share each row seed across their r15/r25 variants, so
    # their groups span configs
    (["2", "5"], "2", 4),
    # every figure's chunks go through one pool, whose threads claim them as
    # they free up
    (["2", "3", "4", "5", "6", "7"], "3", 18),
])
def test_figure_bytes_do_not_depend_on_the_worker_count(ids, workers, files, tmp_path, capsys):
    outputs = []
    for count in ("1", workers):
        out = tmp_path / count
        assert main(["figure", *ids, "--mc-samples", "2000", "--workers", count,
                     "--out", str(out)]) == EXIT_OK
        outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert len(outputs[0]) == files and outputs[1] == outputs[0]
    # the SNR bound decides every all-outage row: MC mean 1, stderr 0
    rows = [row for name in outputs[0] for row in read_rows(tmp_path / "1" / name)
            if row[6] == "all-outage"]
    assert rows and {(row[4], row[5]) for row in rows} == {("1", "0")}


def test_figure_unknown_id(tmp_path, capsys):
    assert main(["figure", "9", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "figure id" in capsys.readouterr().err


def test_validate_passes_and_is_deterministic(capsys):
    assert main(["validate"]) == EXIT_OK
    first = capsys.readouterr().out
    assert "validation passed" in first
    assert main(["validate"]) == EXIT_OK
    assert capsys.readouterr().out == first
    # 70,000 samples make two chunks per estimate, which the threads split
    # and claim in an order of their own
    reports = []
    for workers in ("1", "2", "3"):
        assert main(["validate", "--mc-samples", "70000", "--workers", workers]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[1:] == reports[:1] * 2


def _bias_closed_forms(monkeypatch, bias):
    def biased(scenario, metric, p, nodes):
        result = evaluate(scenario, metric, p, nodes)
        return result._replace(value=result.value + bias)

    monkeypatch.setattr(cli, "evaluate", biased)


def test_validate_fails_every_mc_row_of_biased_closed_forms(monkeypatch, capsys):
    # a closed form 0.2 off fails its Monte-Carlo row at the fixed bounds; the
    # lattice rows compare two biased closed forms, so the bias cancels.  At
    # the default 2000 nodes the unbiased report passes at these samples
    _bias_closed_forms(monkeypatch, 0.2)
    assert main(["validate", "--mc-samples", "20000"]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    rows = [(line.startswith("MC "), line.split()[-1]) for line in lines[1:-1]]
    assert len(rows) == 96 and lines[-1] == "validation FAILED (48 checks)"
    assert [status for mc, status in rows if mc] == ["FAIL"] * 48
    assert [status for mc, status in rows if not mc] == ["pass"] * 48


@pytest.mark.parametrize("metric", ["outage", "rate"])
def test_sweep_fails_every_mc_row_of_biased_closed_forms(metric, tmp_path, monkeypatch,
                                                          capsys):
    _bias_closed_forms(monkeypatch, 0.2)
    config = Path(write_config(tmp_path))
    config.write_text(config.read_text().replace("metric = outage", f"metric = {metric}"))
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    assert [row[8] for row in read_rows(tmp_path / "out.csv")] == ["0"] * 20
    assert capsys.readouterr().out.endswith("20 rows, MC agreement 0/20 passed\n")


def test_optimal_length_command(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["optimal-length", "--metric", "rate", "--alpha", "0.02",
                 "--gamma-t-db", "105", "--l-steps", "25",
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "best half-length" in text
    assert len(read_rows(out)) == 25
    assert main(["optimal-length", "--l-start", "30"]) == EXIT_CONFIG


# the printed best half-length of each case below, in metres
BEST_HALF_LENGTHS = {
    (): "12.060",
    ("--metric", "outage", "--r", "12", "--h", "5", "--alpha", "0.03", "--gamma-t-db", "110"):
        "0.240",
    ("--alpha", "0.1"): "0.500",
    ("--r", "0.3", "--h", "0.1"): "0.282",
    ("--alpha", "0.04"): "4.825",
    ("--metric", "outage"): "14.762",
    ("--metric", "outage", "--alpha", "0"): "22.251",
}


@pytest.mark.parametrize("flags,params,metric", [
    ([], {}, "rate"),
    # r below the reference half-length: the half-length follows as r/2
    (["--metric", "outage", "--r", "12", "--h", "5", "--alpha", "0.03", "--gamma-t-db", "110"],
     dict(r=12.0, h=5.0, alpha=0.03, gamma_t_db=110.0, l=6.0), "outage"),
    # the rate is best at the grid start, 0.5 m
    (["--alpha", "0.1"], dict(alpha=0.1), "rate"),
    # below r = 0.5 m the default grid's step, r/50, is finer than 0.01 m
    (["--r", "0.3", "--h", "0.1"], dict(r=0.3, h=0.1), "rate"),
    (["--alpha", "0.04"], dict(alpha=0.04), "rate"),
    (["--metric", "outage"], {}, "outage"),
    # the lossless outage is flat beyond x0 = sqrt(r^2 - A) = 22.2512 m; the
    # search reports the smallest optimal half-length, not a grid point
    (["--metric", "outage", "--alpha", "0"], dict(alpha=0.0), "outage"),
])
def test_optimal_length_unset_flags_take_the_library_defaults(flags, params, metric, capsys):
    assert main(["optimal-length", *flags]) == EXIT_OK
    result = pinchpass.optimal_length_search(SystemParams.reference(**params), metric)
    assert len(result.grid) == 50
    assert f"{result.best_l:.3f}" == BEST_HALF_LENGTHS[tuple(flags)]
    # an optimum at a grid end gets a second line: the outage at r = 12 m is
    # 0 at every half-length, and the tie goes to the grid start
    end = {0.03: "start", 0.1: "start"}.get(params.get("alpha"))
    assert result.grid_end == end
    assert capsys.readouterr().out == (
        f"best half-length {result.best_l:.3f} m with {metric} {result.best_value:.9g}\n"
        + (f"the optimum is the grid {end}: it may lie beyond the grid\n" if end else ""))


def test_optimal_length_says_beyond_the_grid_only_where_a_length_lies_beyond(capsys):
    # the lossless rate ends at the stop: at r no half-length lies beyond it,
    # below r one may
    assert main(["optimal-length", "--alpha", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("best half-length 25.000 m with rate ") and out.count("\n") == 1
    assert main(["optimal-length", "--alpha", "0", "--l-stop", "20"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("best half-length 20.000 m with rate ")
    assert out.endswith("\nthe optimum is the grid stop: it may lie beyond the grid\n")


def test_figure_pass_flags_are_one_or_zero(tmp_path):
    # PWNL/PWL rate rows compare numpy floats; the flag must still be 1/0
    assert main(["figure", "7", "--out", str(tmp_path), "--mc-samples", "1000"]) == EXIT_OK
    for alpha in ("a0.01", "a0.02", "a0.03", "a0.04"):
        assert {row[8] for row in read_rows(tmp_path / f"figure7_{alpha}.csv")} <= {"1", "0"}


def test_sweep_makes_one_estimate_groups_call(tmp_path, monkeypatch):
    seen = []
    _recording_estimate_groups(monkeypatch,
                               lambda groups, workers: seen.append((len(groups), workers)))
    monkeypatch.setattr(montecarlo, "estimate_many",
                        lambda *args, **kwargs: pytest.fail("estimate_many called"))
    assert main(["sweep", "--config", write_config(tmp_path), "--workers", "4"]) == EXIT_OK
    # one group per row seed, all in one call that gets the worker count
    assert len(seen) == 1 and seen[0][0] > 1 and seen[0][1] == 4


def test_one_worker_starts_no_thread(tmp_path, monkeypatch, capsys):
    def start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    # 70,000 samples make two chunks per group, which two workers would split
    flags = ["--mc-samples", "70000"]
    assert main(["figure", "2", "5", "--out", str(tmp_path), *flags, "--workers", "1"]) == EXIT_OK
    assert main(["validate", *flags, "--workers", "1"]) == EXIT_OK
    with pytest.raises(AssertionError, match="started"):
        main(["validate", *flags, "--workers", "2"])
    assert not hasattr(cli, "ThreadPoolExecutor")


def test_workers_below_one_rejected(tmp_path, capsys):
    for workers in ("0", "-3"):
        assert main(["figure", "7", "--no-mc", "--out", str(tmp_path),
                     "--workers", workers]) == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_zero_mc_samples_rejected_not_defaulted(tmp_path, capsys):
    assert main(["figure", "7", "--out", str(tmp_path), "--mc-samples", "0"]) == EXIT_CONFIG
    assert "n_samples" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_library_value_error_is_a_configuration_error(tmp_path, capsys):
    assert main(["validate", "--mc-samples", "10", "--nodes", "200"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "n_samples" in captured.err and captured.out == ""
    assert main(["validate", "--nodes", "1"]) == EXIT_CONFIG
    assert "nodes" in capsys.readouterr().err
    assert main(["sweep", "--config", write_config(tmp_path), "--mc-samples", "10"]) \
        == EXIT_CONFIG
    assert "n_samples" in capsys.readouterr().err


def test_figure_variants_share_each_seed_draw(tmp_path, monkeypatch):
    draws = []
    sample_unit_disk = montecarlo.sample_unit_disk

    def counting(rng, size, out=None):
        draws.append(size)
        return sample_unit_disk(rng, size, out)

    monkeypatch.setattr(montecarlo, "sample_unit_disk", counting)
    n = 70_000   # one full chunk and a remainder
    assert main(["figure", "4", "--out", str(tmp_path), "--mc-samples", str(n)]) == EXIT_OK
    # 25 grid points x 4 attenuations: one draw per seed, not per row
    assert len(draws) == 25 * 2
    monkeypatch.undo()

    for alpha in (0.01, 0.02, 0.03, 0.04):
        base = SystemParams.reference(gamma_t_db=105.0, alpha=alpha)
        rows = []
        for k, l in enumerate(np.linspace(1.0, 25.0, 25)):
            p = base.with_(l=float(l))
            result = evaluate(Scenario.PWL, "outage", p)
            est = montecarlo.estimate_outage(Scenario.PWL, p, n, DEFAULT_SEED + k)
            gap = abs(result.value - est.mean)
            rows.append(SweepRow("l", float(l), Scenario.PWL, result.value, est.mean,
                                 est.stderr, result.case_id, gap,
                                 bool(gap <= 3.0 * est.stderr + 1e-4)))
        write_csv(rows, str(tmp_path / "expected.csv"))
        assert (tmp_path / f"figure4_a{alpha}.csv").read_bytes() \
            == (tmp_path / "expected.csv").read_bytes()


def _run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(pinchpass.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join((src, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_import_closed_forms_and_mc_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only, and it alone adds ~0.35 s to a fresh
    # interpreter: with every scipy import made to fail, the closed forms,
    # the Monte-Carlo oracle and three CLI commands still run and exit 0
    code = f"""
import sys
sys.modules["scipy"] = None
import pinchpass, pinchpass.cli
from pinchpass import Scenario, SystemParams, estimate_many, evaluate, optimal_length_search
for alpha in (0.0, 0.02):
    p = SystemParams.reference(105.0, alpha=alpha)
    for scenario in Scenario:
        for metric in ("outage", "rate"):
            evaluate(scenario, metric, p, 200)
optimal_length_search(p, "outage")
estimate_many([(s, m, p) for s in Scenario for m in ("outage", "rate")], 4096, 7)
codes = [pinchpass.cli.main(argv) for argv in (
    ["figure", "7", "--no-mc", "--out", {str(tmp_path)!r}],
    ["optimal-length"],
    ["validate", "--mc-samples", "20000"])]
print(codes)
"""
    assert _run_fresh(code).splitlines()[-1] == "[0, 0, 0]"
