"""Correctness gate for the CSVs a benchmark run produces.

A row passes when it is one the spec implies and its value is right:

* analytic rows (jensen, hardening, limit) match the reference CSV
  captured from the same spec, to the six printed digits;
* each MC row agrees with its reference row within K_REF times the
  combined half-width sqrt(hw^2 + hw_ref^2), which stays valid when the
  seed, or the draws themselves, change;
* each MC row respects the paper's oracle: mean - K_BOUND * hw lies at
  or below the same point's Jensen bound and large-SNR limit.

The header must be exact; a wrong header or a row the spec does not
imply fails every row of the file.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

HEADER = ["axis", "scenario", "estimator", "value", "half_width", "branch"]
K_REF = 4.0
K_BOUND = 3.0
# The CSV prints six significant digits; two rounded values can differ
# by up to one unit in the sixth digit without any numeric change.
PRINT_RTOL = 1e-5


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _axis_values(raw: str) -> list[float]:
    """Axis values as the program expands them: a comma list or a
    start:stop[:step] range, inclusive of stop."""
    raw = raw.strip()
    if ":" not in raw:
        return [float(p) for p in raw.split(",")]
    parts = [float(p) for p in raw.split(":")]
    start, stop, step = (parts + [1.0])[:3]
    values, v = [], start
    while v <= stop + 1e-9:
        values.append(round(v, 12))
        v += step
    return values


def expected_keys(spec_path: Path) -> set[tuple[str, str, str]]:
    """(axis, scenario, estimator) of every row the spec implies."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(spec_path, encoding="utf-8")
    values = _axis_values(parser["sweep"]["values"])
    keys = set()
    for section in parser.sections():
        if not section.startswith("scenario:"):
            continue
        name = section.split(":", 1)[1]
        ests = [e.strip() for e in parser[section].get("estimators", "mc").split(",")
                if e.strip()]
        keys.update((_fmt(v), name, e) for v in values for e in ests)
    return keys


def read_rows(path: Path) -> tuple[list[str] | None, dict, int]:
    """Header, rows keyed by (axis, scenario, estimator), and the number
    of data records (more than the keys when a key repeats)."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError):
        return None, {}, 0
    if not records:
        return None, {}, 0
    rows = {}
    for i, rec in enumerate(records[1:]):
        key = (rec[0], rec[1], rec[2]) if len(rec) == len(HEADER) else ("?", "?", str(i))
        rows[key] = rec
    return records[0], rows, len(records) - 1


def number(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def _row_ok(key, rec, ref, rows) -> bool:
    value = number(rec[3])
    ref_rec = ref.get(key)
    if value is None or ref_rec is None:
        return False
    ref_value = number(ref_rec[3])
    if key[2] != "mc":
        return (rec[4] == "" and rec[5] == ref_rec[5]
                and abs(value - ref_value) <= PRINT_RTOL * abs(ref_value) + 1e-12)
    hw, ref_hw = number(rec[4]), number(ref_rec[4])
    if hw is None or hw < 0 or ref_hw is None:
        return False
    slack = K_REF * math.hypot(hw, ref_hw) + PRINT_RTOL * abs(ref_value)
    if abs(value - ref_value) > slack:
        return False
    for bound_est in ("jensen", "limit"):
        bound_rec = rows.get((key[0], key[1], bound_est))
        if bound_rec is None:
            continue
        bound = number(bound_rec[3])
        if bound is None or value - K_BOUND * hw > bound + PRINT_RTOL * abs(bound):
            return False
    return True


def check_csv(csv_path: Path | None, spec_path: Path, ref_path: Path) -> tuple[int, int]:
    """(rows attempted, rows failed) for one CSV; csv_path None means the
    run exited non-zero, which fails every row the spec implies."""
    expected = expected_keys(spec_path)
    if csv_path is None:
        return len(expected), len(expected)
    header, rows, n_records = read_rows(csv_path)
    _, ref, _ = read_rows(ref_path)
    if header != HEADER or set(rows) - expected or n_records != len(rows):
        return len(expected), len(expected)
    failed = sum(1 for key in expected
                 if key not in rows or not _row_ok(key, rows[key], ref, rows))
    return len(expected), failed
