"""Comparison reports and their text/json/csv renderings.

Every CLI command emits a CompareReport: an input echo, one row per
representation, the maximum pairwise relative difference among rows
eligible for comparison, and free-form notes. Rendering is byte
deterministic: floats always print with 17 significant digits (which
round-trips float64 exactly), rationals print as num/den, JSON keys are
sorted, and no timestamps or environment data appear anywhere.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .exact import _is_exact

__all__ = [
    "RepRow",
    "CompareReport",
    "max_pairwise_rel_diff",
    "exact_values_differ",
    "format_float",
    "format_scalar",
    "render_report",
]


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def format_scalar(x) -> str:
    """Value as text: rationals exact, floats at 17 significant digits."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (str, Fraction, int)):
        return str(x)
    return format_float(x)


class RepRow(NamedTuple):
    """One representation's outcome inside a report.

    ``terms`` counts series terms or integrand evaluations, whichever
    applies. A row without a value is skipped (the reason goes in
    ``note``); ``compare=False`` keeps a row out of the pairwise
    difference, for values that are reported but not asserted.
    """

    rep: str
    value: object = None  # int | Fraction | float | None
    err: float | None = None
    terms: int | None = None
    note: str = ""
    compare: bool = True

    @property
    def exact(self) -> bool:
        return _is_exact(self.value)

    @property
    def skipped(self) -> bool:
        return self.value is None


def max_pairwise_rel_diff(values) -> float | None:
    """Largest |v_i - v_j| / max(|v_i|, |v_j|); None for fewer than 2 values."""
    vals = list(values)
    if len(vals) < 2:
        return None
    if _is_exact(*vals) and len(set(vals)) == 1:
        return 0.0  # exact agreement, no float conversion (values may be huge)
    try:
        floats = list(map(float, vals))
    except OverflowError:
        return math.inf  # an exact value past the float range, and the values differ
    worst = 0.0
    for (x, fx), (y, fy) in combinations(zip(vals, floats), 2):
        scale = max(abs(fx), abs(fy))
        if not (math.isfinite(fx) and math.isfinite(fy)):
            return math.inf  # an overflowed row agrees with nothing (inf - inf is nan)
        if scale > 0:
            worst = max(worst, abs(fx - fy) / scale)
        elif scale == 0 and x != y:
            # Both underflow to 0.0 but an exact value is not 0: measure
            # the exact values (1 against a float 0).
            x, y = Fraction(x), Fraction(y)
            worst = max(worst, float(abs(x - y) / max(abs(x), abs(y))))
    return worst


def exact_values_differ(values) -> bool:
    """True when two of the exact values are unequal: an exact route's
    error is a bug, so no tolerance forgives it."""
    return len({v for v in values if _is_exact(v)}) > 1


class CompareReport(NamedTuple):
    command: str
    inputs: tuple[tuple[str, object], ...]  # echoed in the given order
    rows: tuple[RepRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def compared_rows(self) -> tuple[RepRow, ...]:
        return tuple(r for r in self.rows if r.compare and not r.skipped)

    @property
    def max_pairwise_rel_diff(self) -> float | None:
        return max_pairwise_rel_diff([r.value for r in self.compared_rows])

    @property
    def exact_rows_differ(self) -> bool:
        return exact_values_differ(r.value for r in self.compared_rows)

    def within(self, tol: float) -> bool:
        diff = self.max_pairwise_rel_diff
        return not self.exact_rows_differ and (diff is None or diff <= tol)


# The columns of a report row: the CSV order; JSON sorts them, and the
# text table drops "skipped", which shows in its value column instead.
_COLUMNS = ("rep", "value", "err", "exact", "terms", "note", "skipped")


def _cells(row: RepRow) -> list:
    return [getattr(row, column) for column in _COLUMNS]


# json and csv load in the renderer that uses them: a text report in a
# fresh process imports neither.
def _json_atom(x) -> str:
    import json

    if x is None:
        return "null"
    if isinstance(x, (str, Fraction)):
        return json.dumps(str(x))
    return format_scalar(x)


def _json_object(pairs) -> str:
    import json

    body = ",".join(f"{json.dumps(k)}:{v}" for k, v in sorted(pairs))
    return "{" + body + "}"


def _report_json(report: CompareReport) -> str:
    rows = (_json_object(zip(_COLUMNS, map(_json_atom, _cells(r)))) for r in report.rows)
    notes = "[" + ",".join(_json_atom(n) for n in report.notes) + "]"
    return _json_object(
        [
            ("command", _json_atom(report.command)),
            ("input", _json_object([(k, _json_atom(v)) for k, v in report.inputs])),
            ("results", "[" + ",".join(rows) + "]"),
            ("max_pairwise_rel_diff", _json_atom(report.max_pairwise_rel_diff)),
            ("notes", notes),
        ]
    )


def _text_cells(row: RepRow) -> list[str]:
    rep, value, err, _, terms, note, _ = map(format_scalar, _cells(row))
    if row.skipped:
        return [rep, "skipped", err, "", terms, note]
    return [rep, value, err, "yes" if row.exact else "no", terms, note]


def _report_text(report: CompareReport) -> str:
    echo = " ".join(f"{k}={format_scalar(v)}" for k, v in report.inputs)
    lines = [f"{report.command}  {echo}".rstrip()]
    table = [_COLUMNS[:-1], *map(_text_cells, report.rows)]
    widths = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    diff = report.max_pairwise_rel_diff
    if diff is not None:
        lines.append(f"max_pairwise_rel_diff {format_float(diff)}")
    lines.extend(f"note: {note}" for note in report.notes)
    return "\n".join(lines)


def _report_csv(report: CompareReport) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows(map(format_scalar, _cells(r)) for r in report.rows)
    return out.getvalue().rstrip("\n")


def render_report(report: CompareReport, fmt: str) -> str:
    if fmt == "json":
        return _report_json(report)
    if fmt == "csv":
        return _report_csv(report)
    if fmt == "text":
        return _report_text(report)
    raise ValueError(f"unknown format {fmt!r}")
