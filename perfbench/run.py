"""pinchpass benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload closed_form|validate|figures|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The lines before
it print every metric by name and unit (including the workload-specific
ones that are not gated) and a provenance block.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import traffic
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("closed_form", "validate", "figures")
SETUP_REPEATS = 5
MAX_PROBLEMS = 20
WORKERS = {"closed_form": 1, "validate": 1, "figures": wl.FIGURE_WORKERS}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "pinchpass" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'pinchpass'}; run from a pinchpass checkout")
    sys.path.insert(0, str(SRC))
    import pinchpass
    import pinchpass.cli

    if Path(pinchpass.__file__).resolve().parent != (SRC / "pinchpass").resolve():
        _fail(f"imported pinchpass from {pinchpass.__file__}, not from {SRC}")
    return pinchpass, pinchpass.cli


def _declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"missing {path}")
    spec = json.loads(path.read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "pinchpass").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": workload,
        "seed": seed,
        "workers": "1 and 2 (MC scaling probe)" if trace else WORKERS[workload],
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def _first_config(workload: str, seed: int):
    if workload == "closed_form":
        return wl.closed_form_configs(seed)[0]
    if workload == "validate":
        return wl.validate_draws(seed)[0]
    # first row of figure 2: r = 15 m, l = 7.5 m, alpha 0.02, 90 dB
    return wl.Draw(r=15.0, h=10.0, alpha=0.02, l=7.5, gamma_t_db=90.0)


def measure_setup(workload: str, seed: int, gauge: calibrate.Gauge) -> float:
    """Median wall time of fresh interpreters running first_op.py."""
    c = _first_config(workload, seed)
    argv = [sys.executable, str(BENCH_DIR / "first_op.py"), str(SRC), workload,
            repr(c.r), repr(c.h), repr(c.alpha), repr(c.l), repr(c.gamma_t_db), str(seed)]
    walls = []
    for _ in range(SETUP_REPEATS):
        gauge.read()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"set-up probe failed:\n{proc.stderr}")
    gauge.read()
    return statistics.median(walls)


# ---------------------------------------------------------------------------
# the untraced workloads
# ---------------------------------------------------------------------------


def _totals(runs) -> dict:
    """Sum the per-unit check summaries of a run; median unit wall time."""
    return {
        "units": len(runs),
        "attempted": sum(summary["attempted"] for _, summary in runs),
        "failed": sum(summary["failed"] for _, summary in runs),
        "problems": [p for _, summary in runs for p in summary["problems"]][:MAX_PROBLEMS],
        "metrics": {"wall_s": statistics.median(wall for wall, _ in runs)},
    }


def _summary(attempted: int, problems: list, **extra) -> dict:
    # an operation fails once however many of its checks fail
    failed = min(len({key for key, _ in problems}), attempted)
    return {"attempted": attempted, "failed": failed, "problems": problems[:MAX_PROBLEMS],
            **extra}


def run_closed_form(pp, seed: int, seconds: float, gauge) -> dict:
    configs = wl.closed_form_configs(seed)
    identities, id_problems = traffic.closed_form_identities(pp, configs)
    reference = checks.load_reference("closed_form.json") if seed == wl.DEFAULT_SEED else None
    recorder = traffic.LatencyRecorder()
    traffic.closed_form_unit(pp, configs, traffic.plain_call)          # warm-up

    def unit():
        recorder.unit_samples = []
        return traffic.closed_form_unit(pp, configs, recorder)

    def check(out):
        samples = sorted(recorder.unit_samples)
        return _summary(len(out), checks.check_closed_form(configs, out, identities, reference),
                        evals=len(samples), busy_ns=sum(samples),
                        p50_ns=statistics.median(samples), tail_ns=samples[-11])

    runs = traffic.run_loop(unit, check, seconds, gauge)
    result = _totals(runs)
    result["failed"] += len({key for key, _ in id_problems})
    result["problems"] = id_problems + result["problems"]
    per_unit = runs[0][1]["evals"]
    busy_s = sum(s["busy_ns"] for _, s in runs) / 1e9
    result["metrics"].update({
        "evals_per_s": sum(s["evals"] for _, s in runs) / busy_s,
        "op_p50_ms": statistics.median(s["p50_ns"] for _, s in runs) / 1e6,
        "op_tail_ms": statistics.median(s["tail_ns"] for _, s in runs) / 1e6,
    })
    result["notes"] = [
        f"{len(runs)} units of {per_unit} closed-form evaluations ({len(configs)} configurations) "
        f"and {2 * len(wl.SEARCH_ALPHAS)} length searches",
        f"op_p50_ms and op_tail_ms are per unit, median over units; the tail is "
        f"p{100 * (1 - 10 / per_unit):.2f} of the unit's {per_unit} evaluations (10 beyond it)"]
    return result


def run_validate(cli, seed: int, seconds: float, gauge) -> dict:
    reference = checks.load_reference("validate.txt") if seed == wl.DEFAULT_SEED else None
    rows = traffic.VALIDATE_ROWS

    def unit():
        try:
            return traffic.validate_unit(cli, seed)
        except Exception as exc:            # a failed command, counted by check()
            return None, f"{type(exc).__name__}: {exc}"

    def check(output):
        code, text = output
        if code is None:
            return _summary(rows, [(f"validate#{i}", text) for i in range(rows)],
                            mc_pass=0, mc_total=0)
        problems, mc_pass, mc_total = checks.check_validate(code, text, reference, rows)
        return _summary(rows, problems, mc_pass=mc_pass, mc_total=mc_total)

    runs = traffic.run_loop(unit, check, seconds, gauge)
    result = _totals(runs)
    wall_s = result["metrics"]["wall_s"]
    mc_total = sum(s["mc_total"] for _, s in runs)
    result["metrics"].update({
        "evals_per_s": traffic.VALIDATE_EVALS / wall_s,
        "mc_samples_per_s": traffic.VALIDATE_MC_CHECKS * wl.VALIDATE_MC_SAMPLES / wall_s,
        "mc_agree_frac": sum(s["mc_pass"] for _, s in runs) / max(mc_total, 1),
    })
    result["notes"] = [
        f"{len(runs)} units of `pinchpass validate --seed {seed} --workers 1`: "
        f"{traffic.VALIDATE_EVALS} closed forms and {traffic.VALIDATE_MC_CHECKS} MC estimates "
        f"of {wl.VALIDATE_MC_SAMPLES} samples"]
    return result


def run_figures(cli, seed: int, seconds: float, gauge) -> dict:
    out_dir = OUT_DIR / f"figures-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    default_seed = seed == wl.DEFAULT_SEED
    rows = traffic.FIGURE_ROWS

    def unit():
        try:
            return traffic.figures_unit(cli, seed, out_dir)
        except Exception as exc:            # a failed command, counted by check()
            return f"{type(exc).__name__}: {exc}"

    def check(codes):
        if isinstance(codes, str) or any(codes):
            return _summary(rows, [(f"figure#{i}", f"commands returned {codes}")
                                   for i in range(rows)], agree=0, flags=0)
        problems, agree, flags = [], 0, 0
        for name, text in traffic.read_figure_csvs(out_dir).items():
            found, passed, nonstandard = checks.check_figure_csv(
                name, text, traffic.figure_metric(name),
                checks.load_reference(f"figures/{name}"), default_seed)
            problems += found
            agree += passed
            flags += nonstandard
        return _summary(rows, problems, agree=agree, flags=flags)

    try:
        runs = traffic.run_loop(unit, check, seconds, gauge)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = _totals(runs)
    wall_s = result["metrics"]["wall_s"]
    result["metrics"].update({
        "evals_per_s": rows / wall_s,
        "rows_per_s": rows / wall_s,
        "mc_samples_per_s": rows * wl.FIGURE_MC_SAMPLES / wall_s,
        "mc_agree_frac": sum(s["agree"] for _, s in runs) / result["attempted"],
    })
    result["notes"] = [
        f"{len(runs)} units of `pinchpass figure <id> --workers {wl.FIGURE_WORKERS} "
        f"--seed {seed}` for ids 2-7: {rows} rows, each one closed form and one MC estimate "
        f"of {wl.FIGURE_MC_SAMPLES} samples",
        f"known CSV defect: {runs[0][1]['flags']} rows per unit write the pass flag as "
        f"True/False instead of 1/0 (see checks.py)"]
    return result


# Units of the metrics printed but not gated (they are not defined, or are
# a rescaled wall_s, on some workload; see README.md).
EXTRA_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "rows_per_s": "1/s",
               "mc_samples_per_s": "1/s", "mc_agree_frac": "ratio", "fail_frac": "ratio",
               "raw_wall_s": "s", "raw_setup_s": "s", "host_factor": "ratio"}
# Times scale by the host-speed factor (power 1), rates by its inverse.
SCALED = {"wall_s": 1, "setup_s": 1, "op_p50_ms": 1, "op_tail_ms": 1,
          "evals_per_s": -1, "rows_per_s": -1, "mc_samples_per_s": -1}


def run_untraced(pp, cli, workload: str, seed: int, seconds: float) -> dict:
    gauge = calibrate.Gauge()
    setup_s = measure_setup(workload, seed, gauge)
    if workload == "closed_form":
        result = run_closed_form(pp, seed, seconds, gauge)
    elif workload == "validate":
        result = run_validate(cli, seed, seconds, gauge)
    else:
        result = run_figures(cli, seed, seconds, gauge)
    metrics = result["metrics"]
    metrics["setup_s"] = setup_s
    metrics["raw_wall_s"], metrics["raw_setup_s"] = metrics["wall_s"], setup_s
    metrics["host_factor"] = gauge.factor
    for name, power in SCALED.items():
        if name in metrics:
            metrics[name] *= gauge.factor ** power
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["fail_frac"] = result["failed"] / result["attempted"]
    result["notes"].append(
        f"times are scaled to the baseline host's speed: host_factor = "
        f"{calibrate.REFERENCE_S} s / median of {len(gauge.samples)} gauge kernels "
        f"(calibrate.py); raw_wall_s and raw_setup_s are unscaled")
    return result


def run_trace(pp, cli, workload: str, seed: int, seconds: float) -> dict:
    import layers

    out_dir = OUT_DIR / f"trace-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-{seed}.json"
    try:
        metrics, attempted, problems, self_table = layers.run_traced(
            pp, cli, workload, seed, seconds, out_dir, trace_path)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    notes = [f"spans written to {trace_path.relative_to(ROOT)}"]
    notes += [f"self {name}: {count} spans, {total_ms:.3f} ms"
              for name, (count, total_ms) in self_table.items()]
    return {"attempted": attempted, "failed": len({key for key, _ in problems}),
            "problems": problems, "metrics": metrics, "notes": notes}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _run_all(args) -> int:
    """Run each workload in its own interpreter and combine the results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference/ from this checkout at the default seed")
    args = parser.parse_args()

    declared = _declared_metrics()
    pp, cli = _import_package()
    if args.record_reference:
        import reference
        reference.record(pp, cli)
        return 0
    if args.workload == "all":
        return _run_all(args)

    prov = provenance(args.workload, args.seed, bool(args.trace))
    if args.trace:
        result = run_trace(pp, cli, args.workload, args.seed, args.seconds)
        gated = declared["per_layer"]
        units = gated
    else:
        result = run_untraced(pp, cli, args.workload, args.seed, args.seconds)
        gated = declared["end_to_end"]
        units = {**EXTRA_UNITS, **gated}
    missing = set(gated) - set(result["metrics"])
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {sorted(missing)}")

    print("provenance " + json.dumps(prov))
    for note in result.get("notes", []):
        print(f"note {note}")
    for key, problem in result["problems"][:MAX_PROBLEMS]:
        print(f"problem {key}: {problem}")
    for name, value in result["metrics"].items():
        print(f"metric {args.workload} {name} = {value:.6g} {units.get(name, '')}")
    print("result " + json.dumps({"provenance": prov, "attempted": result["attempted"],
                                  "failed": result["failed"], "metrics": result["metrics"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
