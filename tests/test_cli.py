import numpy as np

from pinchpass import montecarlo
from pinchpass.cli import (
    CSV_HEADER,
    DEFAULT_SEED,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    SweepRow,
    closed_form,
    main,
    write_csv,
)
from pinchpass.params import Scenario, SystemParams

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
paper_c = true

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


def test_sweep_reports_io_error(tmp_path):
    cfg = write_config(tmp_path, out="no_dir/deep/out.csv")
    assert main(["sweep", "--config", cfg]) == EXIT_IO


def test_gnuplot_script_emitted(tmp_path):
    cfg = write_config(tmp_path, mc_enabled="false")
    assert main(["sweep", "--config", cfg, "--gnuplot"]) == EXIT_OK
    script = (tmp_path / "out.gp").read_text()
    assert "plot" in script and "FWNL" in script


def test_seed_precedence_flag_over_env_over_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "out.csv"

    main(["sweep", "--config", cfg])
    config_bytes = out.read_bytes()

    monkeypatch.setenv("PINCHPASS_SEED", "999")
    main(["sweep", "--config", cfg])
    env_bytes = out.read_bytes()
    assert env_bytes != config_bytes

    main(["sweep", "--config", cfg, "--seed", "31415"])
    flag_bytes = out.read_bytes()
    assert flag_bytes == config_bytes


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


def test_figure_unknown_id(tmp_path, capsys):
    assert main(["figure", "9", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "figure id" in capsys.readouterr().err


def test_validate_passes_and_is_deterministic(capsys):
    assert main(["validate"]) == EXIT_OK
    first = capsys.readouterr().out
    assert "validation passed" in first
    assert main(["validate"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_validate_zero_tolerance_negative_control(capsys):
    assert main(["validate", "--mc-samples", "20000", "--nodes", "400",
                 "--tol-scale", "0"]) == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_optimal_length_command(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["optimal-length", "--metric", "rate", "--alpha", "0.02",
                 "--gamma-t-db", "105", "--l-steps", "25",
                 "--out", str(out)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "best half-length" in text
    assert len(read_rows(out)) == 25
    assert main(["optimal-length", "--l-start", "30"]) == EXIT_CONFIG


def test_figure_pass_flags_are_one_or_zero(tmp_path):
    # PWNL/PWL rate rows compare numpy floats; the flag must still be 1/0
    assert main(["figure", "7", "--out", str(tmp_path), "--mc-samples", "1000"]) == EXIT_OK
    for alpha in ("a0.01", "a0.02", "a0.03", "a0.04"):
        assert {row[8] for row in read_rows(tmp_path / f"figure7_{alpha}.csv")} <= {"1", "0"}


def test_sweep_row_pool_runs_each_estimate_single_threaded(tmp_path, monkeypatch):
    seen = []
    estimate_many = montecarlo.estimate_many

    def recording(jobs, n_samples, seed, workers=1):
        seen.append(workers)
        return estimate_many(jobs, n_samples, seed, workers)

    monkeypatch.setattr(montecarlo, "estimate_many", recording)
    assert main(["sweep", "--config", write_config(tmp_path), "--workers", "4"]) == EXIT_OK
    assert seen and set(seen) == {1}


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

    def counting(rng, size):
        draws.append(size)
        return sample_unit_disk(rng, size)

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
            result = closed_form(Scenario.PWL, "outage", p)
            est = montecarlo.estimate_outage(Scenario.PWL, p, n, DEFAULT_SEED + k)
            gap = abs(result.value - est.mean)
            rows.append(SweepRow("l", float(l), Scenario.PWL, result.value, est.mean,
                                 est.stderr, result.case_id, gap,
                                 bool(gap <= 3.0 * est.stderr + 1e-4)))
        write_csv(rows, str(tmp_path / "expected.csv"))
        assert (tmp_path / f"figure4_a{alpha}.csv").read_bytes() \
            == (tmp_path / "expected.csv").read_bytes()
