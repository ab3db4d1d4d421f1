"""Record the default-seed reference outputs the checks compare against.

    python3 perfbench/run.py --workload all --record-reference

Rewrites ``reference/`` from the package in this checkout.  Do it only
when a change is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil

import traffic
import workloads as wl
from checks import REFERENCE_DIR


def record(pp, cli) -> None:
    seed = wl.DEFAULT_SEED
    REFERENCE_DIR.mkdir(exist_ok=True)
    unit = traffic.closed_form_unit(pp, wl.closed_form_configs(seed), traffic.plain_call)
    lines = [f"{json.dumps(key)}: {json.dumps(value)}" for key, value in unit.items()]
    (REFERENCE_DIR / "closed_form.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")

    code, text = traffic.validate_unit(cli, seed)
    if code != 0:
        raise SystemExit(f"validate exited {code} at the default seed; not recording")
    (REFERENCE_DIR / "validate.txt").write_text(text)

    figures = REFERENCE_DIR / "figures"
    shutil.rmtree(figures, ignore_errors=True)
    codes = traffic.figures_unit(cli, seed, figures)
    if any(codes):
        raise SystemExit(f"figure commands exited {codes}; not recording")
