"""Formatting helpers for the benchmark harness.

The benchmarks print each figure/table of the paper as plain-text rows
(the same series the paper plots); these helpers keep that output
consistent and machine-greppable for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["format_table", "banner"]


def banner(title: str, width: int = 72) -> str:
    """A visually distinct header for one experiment's output."""
    line = "=" * width
    return f"{line}\n{title}\n{line}"


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]],
                 precision: int = 2) -> str:
    """Render rows as an aligned plain-text table."""
    rendered: List[List[str]] = [[_cell(h, precision) for h in headers]]
    for row in rows:
        rendered.append([_cell(value, precision) for value in row])
    widths = [max(len(r[col]) for r in rendered)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _cell(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)
