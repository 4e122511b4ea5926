"""Tests for repro.analysis.report: the `repro report` engine."""

import csv
import io
import json
import os
import re
from dataclasses import fields

from repro.analysis import (
    build_report,
    discover_bench_files,
    render_html,
    write_report,
)
from repro.experiments import Runner
from repro.experiments.latency_tolerance import sweep_requests
from repro.experiments.runner import LOGGED_COUNTERS, RunnerStats
from repro.store import Query

SMALL = dict(max_resident_warps=8, active_warps=4)


def sweep_runner(tmp_path):
    runner = Runner(cache_dir=str(tmp_path / "store"))
    runner.simulate_many([
        request
        for policy in ("BL", "LTRF")
        for request in sweep_requests(
            policy, "btree", grid=(1.0, 3.0), **SMALL
        )
    ])
    runner.log_run("report-test sweep")
    return runner


def store_corrupt_record(tmp_path):
    """Overwrite one stored record's payload with text that does not
    decode, behind the store's back (only tampering or disk damage
    leaves one)."""
    import sqlite3

    from repro.store.result_store import DATABASE_FILE

    path = os.path.join(tmp_path / "store", DATABASE_FILE)
    with sqlite3.connect(path, isolation_level=None) as connection:
        connection.execute(
            "UPDATE records SET payload = '{this is not json}' WHERE key = "
            "(SELECT min(key) FROM records)")


def write_bench(path, medians):
    path.write_text(json.dumps({
        "machine_info": {"node": "test"},
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ],
    }))


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestBuildReport:
    def test_delta_rows_pivot_policies(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results())
        assert report.policies == ["BL", "LTRF"]
        assert report.baseline_policy == "BL"
        assert len(report.delta_rows) == 2            # one per latency
        assert [row.latency for row in report.delta_rows] == [1.0, 3.0]
        for row in report.delta_rows:
            assert set(row.ipc) == {"BL", "LTRF"}
            assert row.arch_label().endswith("x")     # latency-resolved

    def test_pre_arch_fingerprint_key_is_an_unparsed_row(self, tmp_path):
        """A record under a key from before the arch fingerprint is
        still counted, as a row of its own with no architecture."""
        runner = sweep_runner(tmp_path)
        record = runner.results().records()[0]
        old = record.key.replace(f"__a{record.arch_fingerprint}__",
                                 "__0123456789abcdef__")
        runner.result_store.put(old, dict(record.payload))
        report = build_report(runner.results())
        assert report.record_count == 5
        (row,) = [row for row in report.delta_rows
                  if row.arch_label() == "(unparsed key)"]
        assert row.workload == "btree"
        assert row.ipc == {record.policy: record.ipc}

    def test_telemetry_aggregated_from_run_logs(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results())
        assert len(report.runs) == 1
        assert report.telemetry["simulations"] == 4
        assert 0 <= report.telemetry["compile_cache_hit_rate"] <= 1

    def test_missing_baseline_noted(self, tmp_path):
        report = build_report(sweep_runner(tmp_path).results(),
                              baseline_policy="NOPE")
        assert report.baseline_policy is None
        assert any("'NOPE' absent" in note for note in report.notes)

    def test_corrupt_lines_surface_in_notes(self, tmp_path):
        sweep_runner(tmp_path).result_store.close()
        store_corrupt_record(tmp_path)
        report = build_report(Query.open(str(tmp_path / "store")))
        assert report.corrupt_records >= 1
        assert any("corrupt record(s)" in note for note in report.notes)
        assert "corrupt record(s)" in report.summary_text()
        assert report.record_count == report.stats.records - 1 == 3

    def test_store_health_needs_no_verify_pass(self, tmp_path,
                                               monkeypatch):
        """Store health comes from SQL counts and the damage counter
        from the report's own read of its records; only `store verify`
        reads every row."""
        from repro.analysis import render_html
        from repro.store import ResultStore

        sweep_runner(tmp_path).result_store.close()
        store_corrupt_record(tmp_path)

        def no_verify(store):
            raise AssertionError("the report ran a verify pass")

        monkeypatch.setattr(ResultStore, "verify", no_verify)
        report = build_report(Query.open(str(tmp_path / "store")))
        assert (report.stats.records, report.stats.archs,
                report.stats.runs) == (4, 2, 1)
        assert report.corrupt_records == 1
        assert any(note.startswith("store damage: 1 corrupt record(s)")
                   for note in report.notes)
        html = render_html(report)
        assert '<td class="t">records</td><td>4</td>' in html
        assert '<td class="t">run-log entries</td><td>1</td>' in html
        assert '<td class="t">corrupt records</td><td>1</td>' in html

    def test_fault_tolerance_counters_aggregate_and_render(
            self, tmp_path):
        runner = sweep_runner(tmp_path)
        runner.stats.chunk_retries = 3
        runner.stats.chunk_timeouts = 1
        runner.stats.chunks_quarantined = 2
        runner.stats.backend_degradations = 1
        runner.log_run("chaotic sweep")
        report = build_report(runner.results())
        assert report.telemetry["chunk_retries"] == 3
        assert report.telemetry["chunk_timeouts"] == 1
        assert report.telemetry["chunks_quarantined"] == 2
        assert report.telemetry["backend_degradations"] == 1
        paths = write_report(report, str(tmp_path / "out"))
        html = open(paths["report.html"]).read()
        assert "chunk retries" in html and "quarantined" in html

    def test_pre_backend_run_logs_read_as_zero(self, tmp_path):
        """Run logs written before the distributed backend existed
        carry none of the fault-tolerance keys; they must aggregate
        as zero, not crash the report."""
        runner = sweep_runner(tmp_path)
        runner.result_store.append_run_log({
            "label": "old-format run", "time": 1700000000,
            "simulations": 7, "cache_hits": 0, "host_seconds": 0.5,
        })
        report = build_report(runner.results())
        assert report.telemetry["chunk_retries"] == 0
        assert report.telemetry["chunk_timeouts"] == 0
        assert report.telemetry["chunks_quarantined"] == 0
        assert report.telemetry["backend_degradations"] == 0
        paths = write_report(report, str(tmp_path / "out"))
        assert "old-format run" in open(paths["report.html"]).read()

    def test_replay_era_run_logs_still_render(self, tmp_path):
        """Run logs written while the simulator had a replay engine
        carry four replay counters; their other counters still sum,
        and the report renders without a replay row."""
        runner = sweep_runner(tmp_path)
        before = build_report(runner.results()).telemetry["simulations"]
        runner.result_store.append_run_log({
            "label": "replay-era run", "time": 1700000000,
            "simulations": 7, "cache_hits": 0, "host_seconds": 0.5,
            "replays_served": 3, "replays_recorded": 1,
            "replay_fallbacks_static": 2, "replay_fallbacks_diverged": 1,
        })
        report = build_report(runner.results())
        assert report.telemetry["simulations"] == before + 7
        paths = write_report(report, str(tmp_path / "out"))
        text = open(paths["report.html"]).read()
        assert "replay-era run" in text
        assert "replay:" not in text

    def test_every_counter_reaches_log_summary_and_report(self, tmp_path):
        """Each :class:`RunnerStats` counter, set to a distinct value,
        reaches the run-log entry, ``telemetry_summary()``, the report's
        totals (and their HTML row) under its logged name, and the
        run's row of the per-run table in its own column.  The loop
        runs over the fields, so it covers a counter added later
        without an edit here."""
        runner = Runner(cache_dir=str(tmp_path / "store"))
        for value, spec in enumerate(fields(RunnerStats), start=1):
            setattr(runner.stats, spec.name,
                    {"scoreboard_release": value}
                    if spec.name == "event_counts" else value)
        expected = {spec.name: getattr(runner.stats, spec.name)
                    for spec in fields(RunnerStats)}
        entry = runner.log_run("every counter")
        (stored,) = runner.results().run_history()
        summary = runner.telemetry_summary()
        report = build_report(runner.results())
        html = render_html(report)

        def cell(value):
            return f"{value:.3f}" if isinstance(value, float) else str(value)

        assert set(LOGGED_COUNTERS) == set(expected) - {"event_counts"}
        for name, value in expected.items():
            logged = LOGGED_COUNTERS.get(name, name)
            assert entry[logged] == stored[logged] == value, name
            assert summary[logged] == value, name
            if name in LOGGED_COUNTERS:
                total = report.telemetry[logged]
                assert total == value, name
                label = logged.replace("_", " ")
                assert f'<td class="t">{label}</td><td>{cell(total)}</td>' \
                    in html, name
        run_row = html.split('<td class="t">every counter</td>', 1)[1] \
            .split("</tr>", 1)[0]
        assert re.findall(r"<td>([^<]*)</td>", run_row) == [
            cell(stored[logged]) for logged in LOGGED_COUNTERS.values()]

    def test_bench_trajectory(self, tmp_path):
        write_bench(tmp_path / "BENCH_1.json", {"bench::a": 1.5})
        write_bench(tmp_path / "BENCH_2.json",
                    {"bench::a": 1.0, "bench::b": 3.0})
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        paths = discover_bench_files(str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "BENCH_1.json", "BENCH_2.json", "BENCH_broken.json",
        ]
        report = build_report(sweep_runner(tmp_path).results(),
                              bench_paths=paths)
        assert [label for label, _ in report.bench_files] == [
            "BENCH_1.json", "BENCH_2.json",
        ]
        assert report.bench_files[1][1]["bench::a"] == 1.0
        assert any("BENCH_broken.json" in note for note in report.notes)


class TestWriteReport:
    def test_artifacts_written(self, tmp_path):
        write_bench(tmp_path / "BENCH_x.json", {"bench::a": 2.0})
        report = build_report(
            sweep_runner(tmp_path).results(),
            bench_paths=discover_bench_files(str(tmp_path)),
        )
        out = str(tmp_path / "out")
        paths = write_report(report, out)
        assert sorted(os.path.basename(p) for p in paths.values()) == [
            "bench_trajectory.csv", "deltas.csv", "records.csv",
            "report.html",
        ]

        records = read_csv(paths["records.csv"])
        assert records[0][:3] == ["key", "workload", "policy"]
        assert len(records) == 5                      # header + 4 rows

        deltas = read_csv(paths["deltas.csv"])
        assert deltas[0] == ["workload", "arch", "latency", "seed",
                             "BL_ipc", "LTRF_ipc", "LTRF_vs_BL"]
        for row in deltas[1:]:
            ratio = float(row[-1])
            assert abs(ratio - float(row[5]) / float(row[4])) < 1e-9

        bench = read_csv(paths["bench_trajectory.csv"])
        assert bench[0] == ["benchmark", "BENCH_x.json"]
        assert bench[1] == ["bench::a", "2.0"]

        html = open(paths["report.html"]).read()
        for section in ("Policy-vs-policy IPC", "Engine telemetry",
                        "Store health", "Perf trajectory"):
            assert section in html
        assert "report-test sweep" in html            # the logged run
        assert "cycles skipped" in html
        assert "pool retries" in html
        assert "compile cache hit rate" in html

    def test_records_csv_rows_are_record_values(self, tmp_path):
        """Each records.csv row holds record.value(name) per column,
        also for a key that does not parse and a payload missing a
        column."""
        from repro.analysis.report import _RECORD_COLUMNS

        runner = sweep_runner(tmp_path)
        runner.result_store.put("not-a-cache-key",
                                {"workload": "odd", "ipc": 0.5})
        report = build_report(Query(runner.result_store))
        paths = write_report(report, str(tmp_path / "out"))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(_RECORD_COLUMNS)
        for record in report.records:
            writer.writerow([record.value(name) for name in _RECORD_COLUMNS])
        assert len(report.records) == 5
        with open(paths["records.csv"], newline="") as handle:
            assert handle.read() == expected.getvalue()

    def test_corrupt_lines_rendered_in_html(self, tmp_path):
        sweep_runner(tmp_path).result_store.close()
        store_corrupt_record(tmp_path)
        report = build_report(Query.open(str(tmp_path / "store")))
        paths = write_report(report, str(tmp_path / "out"))
        html = open(paths["report.html"]).read()
        assert "corrupt record" in html
        assert "note: store damage" in html


class TestRenderHtml:
    """`render_html` is the public rendering surface shared by
    `write_report` and the service's GET /report/<id>."""

    def test_matches_the_written_report_byte_for_byte(self, tmp_path):
        from repro.analysis import render_html

        runner = sweep_runner(tmp_path)
        report = build_report(Query(runner.result_store))
        html = render_html(report)
        assert html.lstrip().lower().startswith("<!doctype html") \
            or "<html" in html.lower()
        paths = write_report(report, str(tmp_path / "out"))
        with open(paths["report.html"], encoding="utf-8") as handle:
            assert handle.read() == html
