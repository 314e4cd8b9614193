"""Plain-text rendering of experiment results (tables and figure series).

The original paper renders LaTeX tables and pgfplots figures; the harness
prints aligned ASCII equivalents so every artifact can be regenerated and
eyeballed from a terminal, and diffed in CI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: Optional[str] = None,
                 float_format: str = "{:.4f}") -> str:
    """Render rows as an aligned ASCII table.

    Numeric cells are formatted with ``float_format``; everything else is
    stringified as-is.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width)
                          for cell, width in zip(cells, widths)).rstrip()

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(headers))
    parts.append("-+-".join("-" * width for width in widths))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def format_series(x_label: str, xs: Sequence,
                  named_series: Dict[str, Sequence[float]],
                  title: Optional[str] = None,
                  float_format: str = "{:.4f}") -> str:
    """Render figure data as one row per x value with one column per series."""
    headers = [x_label] + list(named_series)
    rows = []
    for i, x in enumerate(xs):
        row: List = [x]
        for name in named_series:
            row.append(float(named_series[name][i]))
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)
