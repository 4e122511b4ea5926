"""Plain-text rendering of experiment results (paper-style tables).

Every experiment returns an :class:`ExperimentResult`: a caption, column
headers, and rows.  ``render`` produces the aligned text table that
``repro experiment``, ``run_all_experiments.py`` and the benchmarks
print; ``geomean`` and ``mean`` are the aggregations the paper uses
for its "on average" claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment: str                     # e.g. "Figure 9a"
    caption: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    #: Free-form scalar findings ("LTRF mean speedup" etc).
    summary: Dict[str, float] = field(default_factory=dict)

    def add_row(self, *cells: object) -> None:
        self.rows.append(cells)

    def render(self) -> str:
        return render_table(
            f"{self.experiment}: {self.caption}",
            self.headers, self.rows, self.summary,
        )


def _format(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.0f}"
    return str(cell)


def render_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]],
                 summary: Dict[str, float] = None) -> str:
    """Render an aligned, pipe-separated text table."""
    text_rows = [[_format(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return " | ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        ).rstrip()

    parts = [title, line(headers), "-+-".join("-" * w for w in widths)]
    parts.extend(line(row) for row in text_rows)
    if summary:
        parts.append("")
        for key, value in summary.items():
            parts.append(f"  {key}: {_format(value)}")
    return "\n".join(parts)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the conventional mean for normalised speedups)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
