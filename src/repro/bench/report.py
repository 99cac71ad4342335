"""Paper-style report formatting, and the one report writer of ``repro bench``.

Table 1 reports percentage improvements with the conventions of the
paper: "Empty entries indicate no improvement, whereas entries of 0% and
−0% indicate very small improvements and degradations."
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Sequence


def improvement(before: int, after: int) -> float:
    """Fractional improvement of ``after`` over ``before`` (+ is better)."""
    if before == 0:
        return 0.0
    return (before - after) / before


def format_pct(before: int, after: int) -> str:
    """One percentage cell, paper conventions."""
    if before == after:
        return ""
    pct = improvement(before, after) * 100.0
    rounded = round(pct)
    if rounded == 0:
        return "0%" if pct > 0 else "-0%"
    return f"{rounded}%"


def format_count(count: int) -> str:
    """Counts with thousands separators, as in the paper's tables."""
    return f"{count:,}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[str]],
    aligns: Optional[Sequence[str]] = None,
) -> str:
    """A plain-text table with aligned columns.

    ``aligns`` holds "<" or ">" per column (default: first column left,
    the rest right).
    """
    if aligns is None:
        aligns = ["<"] + [">"] * (len(headers) - 1)
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(cells: Sequence[str]) -> str:
        return "  ".join(
            f"{cell:{align}{width}}"
            for cell, align, width in zip(cells, aligns, widths)
        )

    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def finish(report: dict, failures: Sequence[str], json_out: str) -> int:
    """Write a bench report and print its failed gates; return the exit status.

    Every ``repro bench`` command ends here.  The report goes to
    ``json_out`` as indented JSON with sorted keys and a trailing
    newline, each failure goes to stderr as a ``FAIL:`` line, and the
    status is 1 when any gate failed.
    """
    with open(json_out, "w") as handle:
        handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0
