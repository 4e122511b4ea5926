"""``repro report``: per-sweep HTML + CSV reports over the store.

Built entirely on :class:`repro.store.Query` -- the report never
touches the database or raw keys beyond what the query layer
decodes.  One report covers:

* **Policy-vs-policy IPC deltas** -- records are grouped into grid
  points (workload, architecture, seed, kernel) and pivoted by policy;
  each policy's IPC is also expressed relative to a baseline policy
  (``BL`` by default) where that baseline exists at the same point.
  Architectures resolve to their MRF latency multiple through the
  store's arch manifest, so a fig11-style sweep reads as a latency
  axis rather than opaque fingerprints.
* **Engine telemetry** -- every counter the runner logs
  (:data:`repro.experiments.runner.LOGGED_COUNTERS`: simulations vs
  cache hits, host seconds, cycles skipped, batch and compile-cache
  counts, pool and chunk recovery), summed over the run logs the
  runner appends after each sweep, plus the compile-cache hit rate.
* **Store health** -- record, architecture and run-log counts plus
  the database size, from SQL counts (``store verify`` is the
  row-by-row pass), and the damage counter: records the query selected
  but left out because their payload does not decode.
* **Perf trajectory** -- medians per benchmark across committed
  ``BENCH_*.json`` history files (pytest-benchmark format), so a
  report shows how simulator performance moved over time.

Outputs: ``report.html`` plus ``records.csv``, ``deltas.csv`` and
``bench_trajectory.csv`` in the chosen output directory.
"""

from __future__ import annotations

import csv
import glob
import html
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import LOGGED_COUNTERS
from repro.store.query import Query, StoredRecord
from repro.store.result_store import StoreStats


@dataclass
class DeltaRow:
    """One grid point: a (workload, architecture, seed) pivot over policies."""

    workload: str
    arch_fingerprint: str
    latency: Optional[float]
    seed: int
    kernel_fingerprint: str
    ipc: Dict[str, float] = field(default_factory=dict)

    def arch_label(self) -> str:
        if self.latency is not None:
            return f"{self.latency:g}x"
        return self.arch_fingerprint[:8] or "(unparsed key)"


@dataclass
class SweepReport:
    """Everything ``repro report`` renders, before formatting."""

    store_root: str
    records: List[StoredRecord]
    policies: List[str]
    baseline_policy: Optional[str]      # None when absent from the data
    requested_baseline: str
    delta_rows: List[DeltaRow]
    telemetry: Dict[str, float]
    runs: List[dict]
    stats: StoreStats
    #: Records the query selected whose payload does not decode.
    corrupt_records: int
    #: [(label, {benchmark: median_seconds})] oldest file first.
    bench_files: List[Tuple[str, Dict[str, float]]]
    notes: List[str]

    @property
    def record_count(self) -> int:
        return len(self.records)

    def summary_text(self) -> str:
        workloads = sorted({row.workload for row in self.delta_rows})
        text = (
            f"report over {self.store_root}: {self.record_count} "
            f"record(s), {len(self.policies)} policy column(s), "
            f"{len(workloads)} workload(s), {len(self.runs)} logged "
            f"run(s), {len(self.bench_files)} BENCH file(s)"
        )
        if self.corrupt_records:
            text += f"; {self.corrupt_records} corrupt record(s)"
        return text


def discover_bench_files(directory: str) -> List[str]:
    """The ``BENCH_*.json`` history files under ``directory``, sorted
    by name so the committed baseline reads as the trajectory start."""
    return sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))


def _load_bench_file(path: str, notes: List[str]) -> Dict[str, float]:
    """benchmark-name -> median seconds from one pytest-benchmark JSON."""
    medians: Dict[str, float] = {}
    try:
        with open(path) as handle:
            payload = json.load(handle)
        benchmarks = payload["benchmarks"]
        if not isinstance(benchmarks, list):
            raise TypeError("benchmarks is not a list")
    except (OSError, ValueError, TypeError, KeyError) as error:
        notes.append(f"skipped unreadable BENCH file {path!r}: {error}")
        return medians
    for entry in benchmarks:
        if not isinstance(entry, dict):
            continue
        name = entry.get("fullname") or entry.get("name")
        stats = entry.get("stats")
        median = stats.get("median") if isinstance(stats, dict) else None
        if isinstance(name, str) and isinstance(median, (int, float)) \
                and not isinstance(median, bool):
            medians[name] = float(median)
    if not medians:
        notes.append(f"BENCH file {path!r} holds no usable medians")
    return medians


def build_report(query: Query, baseline_policy: str = "BL",
                 bench_paths: Sequence[str] = ()) -> SweepReport:
    """Assemble a :class:`SweepReport` from one store query."""
    notes: List[str] = []
    undecodable: List[str] = []
    records = query.records(undecodable=undecodable)
    stats = query.stats()
    if undecodable:
        notes.append(
            f"store damage: {len(undecodable)} corrupt record(s) "
            f"were skipped (run `store verify` for details)"
        )

    points: Dict[Tuple, DeltaRow] = {}
    policies = set()
    for record in records:
        if record.ipc is None:
            continue
        policies.add(record.policy)
        group = (record.workload, record.arch_fingerprint, record.seed,
                 record.kernel_fingerprint)
        row = points.get(group)
        if row is None:
            row = points[group] = DeltaRow(
                workload=record.workload,
                arch_fingerprint=record.arch_fingerprint,
                latency=record.latency,
                seed=record.seed,
                kernel_fingerprint=record.kernel_fingerprint,
            )
        row.ipc[record.policy] = record.ipc
    delta_rows = sorted(
        points.values(),
        key=lambda row: (row.workload,
                         row.latency if row.latency is not None
                         else float("inf"),
                         row.arch_fingerprint, row.seed),
    )
    policy_columns = sorted(policies)
    baseline: Optional[str] = baseline_policy if any(
        baseline_policy in row.ipc for row in delta_rows
    ) else None
    if baseline is None and delta_rows:
        notes.append(
            f"baseline policy {baseline_policy!r} absent from this "
            "store; deltas are omitted (pass --baseline-policy to "
            "compare against another policy)"
        )

    runs = query.run_history()
    # Every logged counter, summed over the run log; one an entry lacks
    # (it predates the counter) reads as zero.
    telemetry = {name: 0 for name in LOGGED_COUNTERS.values()}
    for entry in runs:
        for name in telemetry:
            value = entry.get(name)
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                telemetry[name] += value
    compile_total = (telemetry["compile_cache_hits"]
                     + telemetry["compile_cache_misses"])
    telemetry["compile_cache_hit_rate"] = (
        telemetry["compile_cache_hits"] / compile_total
        if compile_total else 0.0
    )
    if not runs:
        notes.append(
            "no run telemetry logged in this store yet (sweeps record "
            "it automatically; older stores predate run logs)"
        )

    bench_files = [
        (os.path.basename(path), _load_bench_file(path, notes))
        for path in bench_paths
    ]
    bench_files = [(label, medians) for label, medians in bench_files
                   if medians]

    return SweepReport(
        store_root=stats.root,
        records=records,
        policies=policy_columns,
        baseline_policy=baseline,
        requested_baseline=baseline_policy,
        delta_rows=delta_rows,
        telemetry=telemetry,
        runs=runs,
        stats=stats,
        corrupt_records=len(undecodable),
        bench_files=bench_files,
        notes=notes,
    )


# -- CSV ----------------------------------------------------------------------

_RECORD_COLUMNS = (
    "key", "workload", "policy", "arch_fingerprint", "latency", "seed",
    "kernel_fingerprint", "ipc", "cycles", "instructions",
)


def _write_records_csv(report: SweepReport, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_RECORD_COLUMNS)
        # One tuple per row, in _RECORD_COLUMNS order: what
        # record.value(name) gives per column, read directly.
        writer.writerows(
            (record.key, record.workload, record.policy,
             record.arch_fingerprint, record.latency, record.seed,
             record.kernel_fingerprint,
             record.payload.get("ipc"), record.payload.get("cycles"),
             record.payload.get("instructions"))
            for record in report.records
        )


def _delta_columns(report: SweepReport) -> List[str]:
    columns = ["workload", "arch", "latency", "seed"]
    for policy in report.policies:
        columns.append(f"{policy}_ipc")
        if report.baseline_policy and policy != report.baseline_policy:
            columns.append(f"{policy}_vs_{report.baseline_policy}")
    return columns


def _delta_cells(report: SweepReport, row: DeltaRow) -> List[Any]:
    base = row.ipc.get(report.baseline_policy) \
        if report.baseline_policy else None
    cells: List[Any] = [row.workload, row.arch_label(),
                        row.latency, row.seed]
    for policy in report.policies:
        ipc = row.ipc.get(policy)
        cells.append(ipc)
        if report.baseline_policy and policy != report.baseline_policy:
            cells.append(
                ipc / base if (ipc is not None and base) else None
            )
    return cells


def _write_deltas_csv(report: SweepReport, path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_delta_columns(report))
        for row in report.delta_rows:
            writer.writerow(_delta_cells(report, row))


def _write_bench_csv(report: SweepReport, path: str) -> None:
    names = sorted({
        name for _, medians in report.bench_files for name in medians
    })
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["benchmark"] + [label for label, _ in report.bench_files]
        )
        for name in names:
            writer.writerow(
                [name] + [medians.get(name)
                          for _, medians in report.bench_files]
            )


# -- HTML ---------------------------------------------------------------------

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #ccc; padding: 0.25em 0.6em; text-align: right; }
th { background: #f3f3f3; } td.t, th.t { text-align: left; }
p.note { color: #8a5a00; } p.meta { color: #666; font-size: 0.9em; }
"""


def _cell(value: Any, text_align: bool = False) -> str:
    tag = 'td class="t"' if text_align else "td"
    if value is None:
        return f"<{tag}></td>"
    if isinstance(value, float):
        return f"<{tag}>{value:.3f}</td>"
    return f"<{tag}>{html.escape(str(value))}</td>"


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           text_columns: int = 1) -> str:
    parts = ["<table><tr>"]
    for index, header in enumerate(headers):
        klass = ' class="t"' if index < text_columns else ""
        parts.append(f"<th{klass}>{html.escape(str(header))}</th>")
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(
            _cell(value, index < text_columns)
            for index, value in enumerate(row)
        )
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _html_document(report: SweepReport) -> str:
    stats = report.stats
    sections = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>repro report: {html.escape(report.store_root)}</title>"
        f"<style>{_STYLE}</style></head><body>",
        f"<h1>Result-store report: {html.escape(report.store_root)}</h1>",
        f"<p class='meta'>{html.escape(report.summary_text())}</p>",
    ]
    for note in report.notes:
        sections.append(f"<p class='note'>note: {html.escape(note)}</p>")

    sections.append("<h2>Policy-vs-policy IPC</h2>")
    if report.delta_rows:
        if report.baseline_policy:
            sections.append(
                f"<p class='meta'>deltas are IPC relative to "
                f"{html.escape(report.baseline_policy)} at the same "
                "grid point</p>"
            )
        sections.append(_table(
            _delta_columns(report),
            [_delta_cells(report, row) for row in report.delta_rows],
            text_columns=2,
        ))
    else:
        sections.append("<p>no records with IPC</p>")

    sections.append("<h2>Engine telemetry</h2>")
    if report.runs:
        sections.append(_table(
            ("metric", "total"),
            [(name.replace("_", " "), value)
             for name, value in report.telemetry.items()],
        ))
        counters = list(LOGGED_COUNTERS.values())
        sections.append(_table(
            ["run", "time"] + [name.replace("_", " ") for name in counters],
            [
                [
                    entry.get("label", "?"),
                    time.strftime(
                        "%Y-%m-%d %H:%M:%S",
                        time.localtime(entry.get("time", 0)),
                    ) if entry.get("time") else "",
                ]
                # A counter the entry predates reads 0, as in the totals.
                + [entry.get(name, 0) for name in counters]
                for entry in report.runs
            ],
            text_columns=2,
        ))
    else:
        sections.append("<p>no run telemetry recorded</p>")

    sections.append("<h2>Store health</h2>")
    sections.append(_table(
        ("metric", "value"),
        [
            ("records", stats.records),
            ("architecture descriptions", stats.archs),
            ("run-log entries", stats.runs),
            ("bytes", stats.bytes),
            ("corrupt records", report.corrupt_records),
        ],
    ))

    sections.append("<h2>Perf trajectory (BENCH history)</h2>")
    if report.bench_files:
        names = sorted({
            name for _, medians in report.bench_files for name in medians
        })
        sections.append(_table(
            ["benchmark"] + [label for label, _ in report.bench_files],
            [
                [name] + [medians.get(name)
                          for _, medians in report.bench_files]
                for name in names
            ],
        ))
        sections.append(
            "<p class='meta'>median seconds per benchmark, per "
            "BENCH_*.json file (sorted by file name)</p>"
        )
    else:
        sections.append("<p>no BENCH_*.json history found</p>")

    sections.append("</body></html>")
    return "\n".join(sections)


def render_html(report: SweepReport) -> str:
    """The report as one self-contained HTML document.

    The public rendering surface shared by ``repro report`` (which
    writes it to disk via :func:`write_report`) and the HTTP service's
    ``GET /report/<job>`` (which serves it directly).
    """
    return _html_document(report)


def write_report(report: SweepReport, out_dir: str) -> Dict[str, str]:
    """Write the HTML and CSV artifacts; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "report.html": os.path.join(out_dir, "report.html"),
        "records.csv": os.path.join(out_dir, "records.csv"),
        "deltas.csv": os.path.join(out_dir, "deltas.csv"),
        "bench_trajectory.csv": os.path.join(out_dir,
                                             "bench_trajectory.csv"),
    }
    with open(paths["report.html"], "w", encoding="utf-8") as handle:
        handle.write(render_html(report))
    _write_records_csv(report, paths["records.csv"])
    _write_deltas_csv(report, paths["deltas.csv"])
    _write_bench_csv(report, paths["bench_trajectory.csv"])
    return paths
