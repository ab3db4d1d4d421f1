"""The three workloads' traffic, as units of fixed work.

Workloads call only names in ``pinchpass.__all__`` and
``pinchpass.cli.main``, so refactors behind those names cannot break them.
The closed_form unit takes a ``call(name, op, fn, *args)`` hook, through
which the measuring loop times every evaluation.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import workloads as wl

# (call name, node count) of the closed forms evaluated per configuration:
# every (scenario, metric) pair, with the quadrature rates at both counts.
CLOSED_FORMS = (
    ("outage_fwnl", None), ("outage_fwl", None), ("outage_pwnl", None), ("outage_pwl", None),
    ("rate_fwnl", None),
    ("rate_fwl", 200), ("rate_fwl", 2000),
    ("rate_pwnl", 200), ("rate_pwnl", 2000),
    ("rate_pwl", 200), ("rate_pwl", 2000),
)
VALIDATE_EVALS = 6 * (16 + 8)          # lattice identities + one per (scenario, metric)
VALIDATE_MC_CHECKS = 6 * 8
VALIDATE_ROWS = 6 * 8 + VALIDATE_MC_CHECKS
FIGURE_ROWS = len(wl.figure_rows())


def params_of(pp, c):
    return pp.SystemParams.reference(gamma_t_db=c.gamma_t_db, r=c.r, h=c.h,
                                     alpha=c.alpha, l=c.l)


def plain_call(name, op, fn, *args):
    return fn(*args)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# closed_form: library traffic
# ---------------------------------------------------------------------------


def closed_form_unit(pp, configs, call) -> dict:
    """Every closed form of every configuration, then the length searches."""
    out = {}
    for i, c in enumerate(configs):
        p = params_of(pp, c)
        for fn_name, nodes in CLOSED_FORMS:
            name = fn_name if nodes is None else f"{fn_name}/n{nodes}"
            args = (p,) if nodes is None else (p, nodes)
            try:
                res = call(name, i, getattr(pp, fn_name), *args)
                out[f"cfg{i}/{name}"] = (res.value, res.case_id)
            except Exception as exc:        # a failed operation, counted by the checks
                out[f"cfg{i}/{name}"] = _failure(exc)
    r, h, gamma_t_db = wl.SEARCH_BASE
    for metric in ("rate", "outage"):
        for alpha in wl.SEARCH_ALPHAS:
            p = pp.SystemParams.reference(gamma_t_db=gamma_t_db, r=r, h=h, alpha=alpha, l=r / 2)
            try:
                res = call(f"optimal_length_{metric}", None, pp.optimal_length_search, p, metric)
                out[f"search/{metric}/a{alpha}"] = (res.best_l, res.best_value)
            except Exception as exc:
                out[f"search/{metric}/a{alpha}"] = _failure(exc)
    return out


def closed_form_identities(pp, configs):
    """The l = r identities for every configuration, at 2000 nodes.

    At 200 nodes the two quadratures differ by up to ~7e-6 relative inside
    the box, so, as in the test suite, the identity is checked at 2000.
    """
    identities, problems = [], []
    for i, c in enumerate(configs):
        full = params_of(pp, c).with_(l=c.r)
        pairs = (("outage", pp.outage_pwl, (full,), "outage_fwl"),
                 ("outage", pp.outage_pwnl, (full,), "outage_fwnl"),
                 ("rate", pp.rate_pwl, (full, 2000), "rate_fwl/n2000"),
                 ("rate", pp.rate_pwnl, (full, 2000), "rate_fwnl"))
        for metric, fn, args, want in pairs:
            try:
                identities.append((f"cfg{i}", metric, fn(*args).value, want))
            except Exception as exc:
                problems.append((f"cfg{i}/{want}", f"l=r evaluation raised {_failure(exc)}"))
    return identities, problems


# ---------------------------------------------------------------------------
# validate and figures: CLI traffic
# ---------------------------------------------------------------------------


def validate_argv(seed: int, mc_samples: int | None = None) -> list[str]:
    argv = ["validate", "--seed", str(seed), "--workers", "1"]
    return argv + (["--mc-samples", str(mc_samples)] if mc_samples else [])


def validate_unit(cli, seed: int) -> tuple[int, str]:
    """One `pinchpass validate` run: exit code and report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(validate_argv(seed))
    return code, buf.getvalue()


def figure_argv(fig: int, seed: int, out_dir: Path, workers: int,
                mc_samples: int | None = None, no_mc: bool = False) -> list[str]:
    argv = ["figure", str(fig), "--out", str(out_dir), "--workers", str(workers),
            "--seed", str(seed)]
    if mc_samples:
        argv += ["--mc-samples", str(mc_samples)]
    return argv + (["--no-mc"] if no_mc else [])


def figures_unit(cli, seed: int, out_dir: Path) -> list[int]:
    """`pinchpass figure <id>` for ids 2-7; exit codes, CSVs left in out_dir."""
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.main(figure_argv(fig, seed, out_dir, wl.FIGURE_WORKERS))
                for fig in wl.FIGURE_IDS]


def read_figure_csvs(out_dir: Path) -> dict[str, str]:
    names = sorted({row.csv_name for row in wl.figure_rows()})
    return {name: (out_dir / name).read_text() if (out_dir / name).exists() else ""
            for name in names}


def figure_metric(csv_name: str) -> str:
    return wl.FIGURES[int(csv_name[len("figure"):].split("_")[0])][0]


# ---------------------------------------------------------------------------
# the untraced closed loop
# ---------------------------------------------------------------------------


class LatencyRecorder:
    """Call hook that times each closed-form evaluation (not the searches)."""

    def __init__(self):
        self.unit_samples: list[int] = []

    def __call__(self, name, op, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        elapsed = time.perf_counter_ns() - t0
        if not name.startswith("optimal_length"):
            self.unit_samples.append(elapsed)
        return result


def run_loop(unit, check, seconds: float, gauge, min_units: int = 3):
    """Run ``unit()`` back to back for ``seconds`` (at least ``min_units``).

    ``check(output)`` runs after each unit, outside the timed region, and
    reduces the output to a small summary, so memory does not grow with
    the number of units.  ``gauge`` is read before each unit and after the
    last, so its samples span the same minutes as the units.  Returns
    [(wall seconds, summary)] in order.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < min_units or time.perf_counter() < deadline:
        gauge.read()
        t0 = time.perf_counter()
        output = unit()
        wall = time.perf_counter() - t0
        runs.append((wall, check(output)))
    gauge.read()
    return runs
