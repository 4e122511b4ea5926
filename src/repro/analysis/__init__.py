"""Analysis & reporting layer over the result store.

Everything here reads records exclusively through the store's query
API (:mod:`repro.store.query`); nothing below this package touches
the database.  :mod:`repro.analysis.report` renders per-sweep
HTML/CSV reports (``repro report``); :mod:`repro.analysis.diff_runs`
explains which grid points changed between two stores and why
(``repro diff-runs``).
"""

from repro.analysis.diff_runs import DiffEntry, DiffReport, diff_runs
from repro.analysis.report import (
    SweepReport,
    build_report,
    discover_bench_files,
    render_html,
    write_report,
)

__all__ = [
    "DiffEntry",
    "DiffReport",
    "SweepReport",
    "build_report",
    "diff_runs",
    "discover_bench_files",
    "render_html",
    "write_report",
]
