"""Output check: compare one invocation's CSV and summary with the reference.

The CLI prints every number with 6 significant digits, so two outputs agree
when each cell, re-rendered at 6 significant digits, is the same.  A non-zero
exit, a NaN/inf cell or any difference from the reference marks the
invocation as failed.  Without a reference only the exit code, the header and
finiteness are checked.
"""

from __future__ import annotations

import math
import re

HEADER_BASE = "gain_db,std_error_db,gamma_irs,los_amp,irs_sum_amp,wall_mean_amp,mean_wall_power_mw"
HEADER = "param," + HEADER_BASE
_SUMMARY = re.compile(r"^l_star = (\S+), gain_db = (\S+)$")


def _cell(text: str) -> str | None:
    """The cell at 6 significant digits, or None when it is not a finite number."""
    try:
        x = float(text)
    except ValueError:
        return None
    return format(x, ".6g") if math.isfinite(x) else None


def _rows(csv_text: str) -> list[list[str]]:
    return [line.split(",") for line in csv_text.splitlines()[1:]]


def check_output(rc: int, csv_text: str, summary: str | None, ref: dict | None) -> list[str]:
    """Problems found in one invocation's output; an empty list means it passed.

    ``summary`` is the optimize ``l_star = ..., gain_db = ...`` line (None for
    other commands); ``ref`` holds the reference ``csv`` and ``summary``.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    lines = csv_text.splitlines()
    if not lines or lines[0] != HEADER:
        return [f"bad header {lines[0] if lines else ''!r}"]
    problems = []
    rows = _rows(csv_text)
    if not rows:
        problems.append("no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(HEADER.split(",")):
            problems.append(f"row {i}: {len(row)} cells")
        elif any(_cell(c) is None for c in row):
            problems.append(f"row {i}: non-finite cell in {','.join(row)}")
    if summary is not None:
        m = _SUMMARY.match(summary.strip())
        if m is None or any(_cell(g) is None for g in m.groups()):
            problems.append(f"bad summary {summary.strip()!r}")
    if problems or ref is None:
        return problems

    ref_rows = _rows(ref["csv"])
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, (row, want) in enumerate(zip(rows, ref_rows)):
        for name, got, exp in zip(HEADER.split(","), row, want):
            if _cell(got) != _cell(exp):
                problems.append(f"row {i} {name}: {got} != reference {exp}")
    if ref.get("summary") is not None:
        got = _SUMMARY.match(summary.strip()).groups() if summary else ()
        exp = _SUMMARY.match(ref["summary"].strip()).groups()
        if [_cell(g) for g in got] != [_cell(e) for e in exp]:
            problems.append(f"summary {summary.strip() if summary else ''!r} != reference {ref['summary'].strip()!r}")
    return problems
