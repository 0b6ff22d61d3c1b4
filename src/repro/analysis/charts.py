"""Terminal line charts for the figure benchmarks.

The paper's results are line plots; the benchmarks print their data as
tables, and these helpers additionally render them as ASCII charts so a
terminal run shows the *shape* — the thing the reproduction targets —
at a glance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["line_chart"]

_MARKERS = "o+x*#@"


def line_chart(series: Dict[str, List[Tuple[float, float]]],
               width: int = 60, height: int = 16,
               x_label: str = "", y_label: str = "",
               y_min: Optional[float] = None,
               y_max: Optional[float] = None) -> str:
    """Plot named (x, y) series on a shared ASCII grid.

    Each series gets a marker character; overlapping points show the
    later series' marker.  Axes are annotated with the data ranges.
    """
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        raise ValueError("no data to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low = y_min if y_min is not None else min(ys)
    y_high = y_max if y_max is not None else max(ys)
    if x_high == x_low:
        x_high = x_low + 1
    if y_high == y_low:
        y_high = y_low + 1

    grid = [[" "] * width for _ in range(height)]

    def plot(x: float, y: float, marker: str) -> None:
        column = int((x - x_low) / (x_high - x_low) * (width - 1))
        row = int((y - y_low) / (y_high - y_low) * (height - 1))
        row = min(max(row, 0), height - 1)
        grid[height - 1 - row][column] = marker

    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker} {name}")
        previous = None
        for x, y in sorted(values):
            if previous is not None:
                # Linear interpolation so the lines read as lines.
                px, py = previous
                steps = max(1, int((x - px) / (x_high - x_low)
                                   * (width - 1)))
                for step in range(1, steps):
                    t = step / steps
                    plot(px + (x - px) * t, py + (y - py) * t, ".")
            plot(x, y, marker)
            previous = (x, y)

    lines = []
    top_label = f"{y_high:g}"
    bottom_label = f"{y_low:g}"
    margin = max(len(top_label), len(bottom_label), len(y_label)) + 1
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(margin)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(margin)
        elif row_index == height // 2 and y_label:
            prefix = y_label.rjust(margin)
        else:
            prefix = " " * margin
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * margin + "+" + "-" * width)
    x_axis = f"{x_low:g}".ljust(width // 2) + f"{x_high:g}".rjust(
        width - width // 2)
    lines.append(" " * (margin + 1) + x_axis)
    if x_label:
        lines.append(" " * (margin + 1) + x_label.center(width))
    lines.append(" " * (margin + 1) + "   ".join(legend))
    return "\n".join(lines)
