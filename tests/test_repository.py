import contextlib
import io
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_and_prints_the_repr_it_shows():
    # a change of a public name or of the result type that breaks the README's
    # library quick start fails here; "..." in the shown repr matches anything
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md: Library quick start", "exec"), {})
    shown = re.search(r"print\(outage_pwl\(p\)\) +# (.*)", code).group(1)
    first = out.getvalue().splitlines()[0]
    assert re.fullmatch(re.escape(shown).replace(re.escape("..."), ".+"), first), \
        f"README shows {shown!r}, the quick start prints {first!r}"


def test_bench_records_name_only_declared_workloads_and_metrics():
    # every BENCH_<n>.json names only workloads and metrics that BENCHMARK.json
    # declares, so a renamed metric cannot leave a record stale
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json"
    for path in paths:
        bench = json.loads(path.read_text())
        for section in ("end_to_end", "traced"):
            assert set(bench[section]) <= workloads, (path.name, section, set(bench[section]))
            for workload, values in bench[section].items():
                assert set(values) <= metrics, (path.name, workload, set(values) - metrics)
        for defect in bench["defects"]:
            assert set(defect["spoils"]) <= metrics, (path.name, defect["spoils"])
