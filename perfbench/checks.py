"""Correctness checks on the CSVs the experiments write.

A run (one experiment at one seed) fails when the CLI exits non-zero, writes
no CSV, reports a missing or non-finite final metric in summary.csv, or
writes a CSV that disagrees with the recorded reference:
- the header and the row count must be equal;
- a field that reads as an integer in the reference must be equal;
- any other numeric field x must satisfy |x - ref| <= ATOL + RTOL·|ref|
  (NaN only matches NaN);
- a text field must be equal.

RTOL = 1e-6 admits reordered floating-point sums (a last-ulp change, as in
lockstep solvers) and rejects any change in what is computed. ATOL = 1e-12
covers values that are rounding noise around zero, such as `variance_mixed`
near 1e-15 in emgd_variance.
"""

from __future__ import annotations

import csv
import io
import math

RTOL = 1e-6
ATOL = 1e-12


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def values_agree(value: str, ref: str) -> bool:
    if value == ref:
        return True
    try:
        x, y = float(value), float(ref)
    except ValueError:
        return False
    if _is_int(ref):
        return False
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= ATOL + RTOL * abs(y)


def _rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


def csv_disagreement(data: bytes, ref: bytes, columns=None) -> str | None:
    """Why `data` disagrees with `ref` on `columns` (all when None), or None."""
    rows, ref_rows = _rows(data), _rows(ref)
    if not rows or rows[0] != ref_rows[0]:
        return "header differs"
    if len(rows) != len(ref_rows):
        return f"{len(rows) - 1} rows, reference has {len(ref_rows) - 1}"
    header = ref_rows[0]
    picked = range(len(header)) if columns is None else [header.index(c) for c in columns]
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        if len(row) != len(header):
            return "malformed row"
        for j in picked:
            if not values_agree(row[j], ref_row[j]):
                return f"{header[j]} = {row[j]}, reference {ref_row[j]}"
    return None


def final_metric(summary: bytes, seed: int) -> float | None:
    """The final metric summary.csv reports for `seed`, or None."""
    for row in csv.DictReader(io.StringIO(summary.decode("utf-8"))):
        if row.get("seed") == str(seed):
            try:
                return float(row["final_metric"])
            except (KeyError, TypeError, ValueError):
                return None
    return None
