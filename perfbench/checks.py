"""Correctness checks on every workload's outputs.

Tolerances are the ones the test suite states: 1e-9 absolute for outage,
1e-6 relative for rate.  For the default seed the outputs are compared with
the stored references in ``reference/``; Monte-Carlo columns and case ids
must match exactly there (the CSV bytes are a documented contract).  On any
other seed only seed-independent facts are checked: value ranges, known
case ids, the l = r identities, and the figure presets' closed-form and
case-id columns, which do not depend on the seed.

The box checked here is the paper's and the tests' domain.  The h << r
inaccuracy of the lossy full-coverage rate lies outside it, so a clean run
certifies nothing about that region.

Each check function returns a list of (operation, problem) pairs, empty
when everything holds.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUTAGE_ATOL = 1e-9
RATE_RTOL = 1e-6

LOSSY_CASES = {
    "all-outage", "no-outage", "unclassified",
    "g2-mid-mid", "g2-mid-right", "g2-left-right", "g2-left-mid",
    "g1f1-left-mid", "g1f1-left-right", "g1f1-mid-mid", "g1f1-mid-right",
    "f2-left-mid", "f2-left-right",
}
FULL_LOSSLESS_CASES = {"all-outage", "no-outage", "interior"}
PARTIAL_LOSSLESS_CASES = {"all-outage", "no-outage", "stadium", "stadium-caps", "band"}


def close(metric: str, got: float, ref: float, slack: float = 0.0) -> bool:
    """Agreement at the suite's tolerance, plus an optional absolute slack."""
    if metric == "outage":
        return abs(got - ref) <= OUTAGE_ATOL + slack
    return abs(got - ref) <= RATE_RTOL * abs(ref) + slack


def in_range(metric: str, value: float) -> bool:
    if not math.isfinite(value):
        return False
    return 0.0 <= value <= 1.0 if metric == "outage" else value >= 0.0


def base_case(case_id: str | None) -> str:
    """Case id without the numeric-fallback suffix."""
    return (case_id or "").removesuffix("+numeric")


def known_case(scenario: str, case_id: str | None, lossy_params: bool) -> bool:
    case = base_case(case_id)
    if scenario in ("FWL", "PWL") and lossy_params:
        return case in LOSSY_CASES
    if scenario in ("FWNL", "FWL"):
        return case in FULL_LOSSLESS_CASES
    return case in PARTIAL_LOSSLESS_CASES


def load_reference(name: str):
    path = REFERENCE_DIR / name
    if not path.exists():
        return None
    if path.suffix == ".json":
        return json.loads(path.read_text())
    return path.read_text()


# ---------------------------------------------------------------------------
# closed_form
# ---------------------------------------------------------------------------


def check_closed_form(configs, unit, identities, reference) -> list[tuple[str, str]]:
    """Check one unit of closed_form output.

    ``unit`` maps "cfg<i>/<call>" to (value, case_id) or an exception text,
    and "search/<metric>/a<alpha>" to (best_l, best_value); ``identities``
    lists (config prefix, metric, partial-coverage value at l = r, the
    full-coverage call it must equal).
    """
    problems = []
    for key, result in unit.items():
        if isinstance(result, str):
            problems.append((key, f"raised {result}"))
            continue
        if key.startswith("search/"):
            best_l, best_value = result
            metric = key.split("/")[1]
            if not in_range(metric, best_value) or not math.isfinite(best_l):
                problems.append((key, f"bad search result {result!r}"))
            continue
        i, call = key.split("/", 1)
        cfg = configs[int(i[3:])]
        value, case_id = result
        metric = call.split("_")[0]
        scenario = call.split("_")[1].split("/")[0].upper()
        if not in_range(metric, value):
            problems.append((key, f"value {value!r} out of range"))
        if metric == "outage" and not known_case(scenario, case_id, cfg.alpha > 0.0):
            problems.append((key, f"unknown case id {case_id!r}"))
        expected = dict(cfg.labels).get(scenario)
        if metric == "outage" and expected and base_case(case_id) != expected:
            problems.append((key, f"case {case_id!r}, inputs were drawn as {expected!r}"))

    for prefix, metric, got, want_call in identities:
        want = unit.get(f"{prefix}/{want_call}")
        if isinstance(want, tuple) and not close(metric, got, want[0]):
            problems.append((f"{prefix}/{want_call}", f"l=r identity: {got!r} vs {want[0]!r}"))

    if reference is not None:
        if sorted(reference) != sorted(unit):
            problems.append(("reference", "unit does not match the stored reference keys"))
        for key, ref in reference.items():
            got = unit.get(key)
            if not isinstance(got, tuple):
                continue
            if key.startswith("search/"):
                metric = key.split("/")[1]
                if abs(got[0] - ref[0]) > 2e-3 or not close(metric, got[1], ref[1]):
                    problems.append((key, f"search {got!r} vs reference {ref!r}"))
                continue
            metric = key.split("/", 1)[1].split("_")[0]
            if not close(metric, got[0], ref[0]):
                problems.append((key, f"value {got[0]!r} vs reference {ref[0]!r}"))
            if got[1] != ref[1]:
                problems.append((key, f"case {got[1]!r} vs reference {ref[1]!r}"))
    return problems


# ---------------------------------------------------------------------------
# validate: the command's report lines
# ---------------------------------------------------------------------------


def parse_validate(text: str):
    """(name, got, reference, status) per check line of the report."""
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) < 5 or parts[-1] not in ("pass", "FAIL"):
            continue
        name = " ".join(parts[:-4])
        rows.append((name, parts[-4], parts[-3], parts[-1]))
    return rows


def _print_resolution(text: str) -> float:
    # the report prints 9 significant digits; allow one unit in the last one
    value = abs(float(text))
    return 0.0 if value == 0.0 else 10.0 ** (math.floor(math.log10(value)) - 8)


def check_validate(code: int, text: str, reference: str | None,
                   expected_rows: int) -> tuple[list[tuple[str, str]], int, int]:
    """Problems, MC checks passed, MC checks made."""
    rows = parse_validate(text)
    problems = []
    if len(rows) != expected_rows:
        problems.append(("report", f"{len(rows)} check lines, expected {expected_rows}"))
    failing = sum(status == "FAIL" for *_, status in rows)
    if code != (0 if failing == 0 else 1):
        problems.append(("exit", f"exit code {code} with {failing} failing lines"))
    mc_total = mc_pass = 0
    # lattice lines repeat their names for every draw, so the line number
    # is part of the operation key
    for i, (name, got, ref, status) in enumerate(rows):
        metric = "outage" if "outage" in name else "rate"
        for text_value in (got, ref):
            if not in_range(metric, float(text_value)):
                problems.append((f"{i}:{name}", f"value {text_value} out of range"))
        if name.startswith("MC "):
            mc_total += 1
            mc_pass += status == "pass"
        elif status != "pass":
            problems.append((f"{i}:{name}", "consistency identity failed"))
    if reference is not None:
        ref_rows = parse_validate(reference)
        if [r[0] for r in ref_rows] != [r[0] for r in rows]:
            problems.append(("reference", "check lines differ from the stored reference"))
        for i, ((name, got, ref, status), (_, r_got, r_ref, r_status)) in enumerate(
                zip(rows, ref_rows)):
            key = f"{i}:{name}"
            metric = "outage" if "outage" in name else "rate"
            if not close(metric, float(got), float(r_got), _print_resolution(r_got)):
                problems.append((key, f"closed form {got} vs reference {r_got}"))
            mc_line = name.startswith("MC ")
            if mc_line and (ref != r_ref or status != r_status):
                problems.append((key, f"MC {ref} {status} vs reference {r_ref} {r_status}"))
            if not mc_line and not close(metric, float(ref), float(r_ref),
                                         _print_resolution(r_ref)):
                problems.append((key, f"reference column {ref} vs stored {r_ref}"))
    return problems, mc_pass, mc_total


# ---------------------------------------------------------------------------
# figures: the CSV files
# ---------------------------------------------------------------------------

CSV_HEADER = "swept_var,swept_value,scenario,closed_form,mc_mean,mc_stderr,case_id,abs_gap,pass"
# The CLI writes the pass flag as 1/0, except on rows whose closed form is a
# numpy float (the PWNL/PWL rates), where it writes True/False.  That is a
# defect of the CSV format, reported as a count, not an operation failure:
# the value is right and the failures counted here are the ones the
# benchmark defines (exceptions, exit codes, ranges, reference mismatches).
PASS_FLAGS = {"1": True, "0": False, "True": True, "False": False}


def check_figure_csv(name: str, text: str, metric: str, reference: str | None,
                     default_seed: bool) -> tuple[list[tuple[str, str]], int, int]:
    """Problems, rows passing the MC agreement flag, rows flagged True/False."""
    problems = []
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [(name, "missing or wrong CSV header")], 0, 0
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    ref_rows = list(csv.reader(io.StringIO("\n".join(reference.splitlines()[1:])))) \
        if reference is not None else None
    if ref_rows is not None and len(ref_rows) != len(rows):
        problems.append((name, f"{len(rows)} rows, reference has {len(ref_rows)}"))
    agree = nonstandard = 0
    for k, row in enumerate(rows):
        key = f"{name}#{k}"
        if len(row) != 9:
            problems.append((key, "wrong field count"))
            continue
        _, _, scenario, cf, mc_mean, mc_stderr, case_id, abs_gap, passed = row
        cf_v, mean_v, se_v = float(cf), float(mc_mean), float(mc_stderr)
        if not (in_range(metric, cf_v) and in_range(metric, mean_v) and se_v >= 0.0):
            problems.append((key, "value out of range"))
        if metric == "outage" and not known_case(scenario, case_id, True):
            problems.append((key, f"unknown case id {case_id!r}"))
        if passed not in PASS_FLAGS:
            problems.append((key, f"pass flag {passed!r}"))
            continue
        tol = 1e-4 if metric == "outage" else 0.0
        if PASS_FLAGS[passed] != (float(abs_gap) <= 3.0 * se_v + tol):
            problems.append((key, "pass flag inconsistent with the gap"))
        agree += PASS_FLAGS[passed]
        nonstandard += passed in ("True", "False")
        if ref_rows is None or k >= len(ref_rows):
            continue
        ref = ref_rows[k]
        if row[:3] != ref[:3] or case_id != ref[6]:
            problems.append((key, f"row {row[:3]} {case_id} vs reference {ref[:3]} {ref[6]}"))
        if not close(metric, cf_v, float(ref[3])):
            problems.append((key, f"closed form {cf} vs reference {ref[3]}"))
        if default_seed and (mc_mean, mc_stderr) != (ref[4], ref[5]):
            problems.append((key, f"MC columns {mc_mean},{mc_stderr} vs {ref[4]},{ref[5]}"))
    return problems, agree, nonstandard
